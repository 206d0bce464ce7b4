//! Packed object pointers.
//!
//! An [`ObjPtr`] identifies an allocated object by the chunk it lives in and the word
//! offset of its header within that chunk. It plays the role of the paper's `objptr`
//! type: a value that can be stored in an object's pointer field, compared, and resolved
//! back to memory through the [`ChunkStore`](crate::store::ChunkStore).

use crate::chunk::ChunkId;
use std::fmt;

/// A packed pointer to an allocated object: `(chunk id, word offset of the header)`.
///
/// The all-ones bit pattern is reserved for [`ObjPtr::NULL`], which is used both for
/// "no forwarding pointer" and for nil pointer fields (e.g. the tail of a list).
///
/// Bit 31 — the top bit of the offset — is never set in a pointer: offsets are below
/// the capacity of their chunk, which is at most [`MAX_CHUNK_WORDS`]. A forwarding
/// slot uses that bit to tag a hop whose copy is not ready yet
/// ([`crate::ObjView::fwd_ready`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjPtr(u64);

/// Largest chunk capacity in words (2³¹, 16 GiB): every header offset is below it,
/// which keeps bit 31 — the forwarding slot's pending tag — free in every [`ObjPtr`].
pub const MAX_CHUNK_WORDS: usize = 1 << 31;

/// The bit of a forwarding slot that marks its hop as pending (bit 31 of the offset).
pub(crate) const PENDING_BIT: u64 = 1 << 31;

impl ObjPtr {
    /// The null object pointer. Dereferencing it is a logic error caught by debug asserts.
    pub const NULL: ObjPtr = ObjPtr(u64::MAX);

    /// Builds an object pointer from a chunk id and a word offset within that chunk.
    #[inline]
    pub fn new(chunk: ChunkId, offset: u32) -> Self {
        let bits = ((chunk.0 as u64) << 32) | offset as u64;
        debug_assert_ne!(bits, u64::MAX, "ObjPtr::new collided with NULL");
        debug_assert_eq!(
            bits & PENDING_BIT,
            0,
            "offset {offset} sets the pending bit"
        );
        ObjPtr(bits)
    }

    /// True if this is [`ObjPtr::NULL`].
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == u64::MAX
    }

    /// The chunk this object lives in. Must not be called on NULL.
    #[inline]
    pub fn chunk(self) -> ChunkId {
        debug_assert!(!self.is_null(), "chunk() on null ObjPtr");
        ChunkId((self.0 >> 32) as u32)
    }

    /// Word offset of the object header inside its chunk. Must not be called on NULL.
    #[inline]
    pub fn offset(self) -> u32 {
        debug_assert!(!self.is_null(), "offset() on null ObjPtr");
        self.0 as u32
    }

    /// Raw bit representation, suitable for storing into an object word.
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a pointer from its raw bit representation.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        ObjPtr(bits)
    }
}

impl Default for ObjPtr {
    fn default() -> Self {
        ObjPtr::NULL
    }
}

impl fmt::Debug for ObjPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "ObjPtr(NULL)")
        } else {
            write!(f, "ObjPtr(c{}+{})", self.chunk().0, self.offset())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        assert!(ObjPtr::NULL.is_null());
        assert_eq!(ObjPtr::from_bits(ObjPtr::NULL.to_bits()), ObjPtr::NULL);
        assert_eq!(ObjPtr::default(), ObjPtr::NULL);
    }

    #[test]
    fn pack_unpack() {
        let p = ObjPtr::new(ChunkId(7), 1234);
        assert!(!p.is_null());
        assert_eq!(p.chunk(), ChunkId(7));
        assert_eq!(p.offset(), 1234);
        assert_eq!(ObjPtr::from_bits(p.to_bits()), p);
    }

    #[test]
    fn extreme_values_do_not_collide_with_null() {
        let p = ObjPtr::new(ChunkId(u32::MAX - 1), (MAX_CHUNK_WORDS - 1) as u32);
        assert!(!p.is_null());
        let q = ObjPtr::new(ChunkId(0), 0);
        assert!(!q.is_null());
        assert_ne!(p, q);
    }

    #[test]
    fn ordering_is_total() {
        let a = ObjPtr::new(ChunkId(1), 10);
        let b = ObjPtr::new(ChunkId(1), 20);
        let c = ObjPtr::new(ChunkId(2), 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn debug_format() {
        let p = ObjPtr::new(ChunkId(3), 42);
        assert_eq!(format!("{:?}", p), "ObjPtr(c3+42)");
        assert_eq!(format!("{:?}", ObjPtr::NULL), "ObjPtr(NULL)");
    }
}
