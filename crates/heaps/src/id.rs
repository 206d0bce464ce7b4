//! Heap identifiers.

use std::fmt;

/// Identifier of a heap inside a [`HeapRegistry`](crate::registry::HeapRegistry).
///
/// Heap ids are small integers handed out in creation order; the raw value `u32::MAX`
/// is reserved for [`HeapId::NONE`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeapId(pub u32);

impl HeapId {
    /// "No heap": used for the root heap's parent and for unmerged heaps' forwarding link.
    pub const NONE: HeapId = HeapId(u32::MAX);

    /// True if this is [`HeapId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self == HeapId::NONE
    }

    /// Raw integer value (as stored in chunk owner slots).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Builds a heap id from its raw value.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        HeapId(raw)
    }

    /// The id of registry table slot `idx`.
    ///
    /// # Panics
    /// Panics when `idx` does not fit below [`HeapId::NONE`]: a wrapping cast
    /// would hand out `NONE` itself and then alias earlier ids.
    #[inline]
    pub(crate) fn from_index(idx: usize) -> Self {
        match u32::try_from(idx) {
            Ok(raw) if raw != HeapId::NONE.0 => HeapId(raw),
            _ => panic!("heap table overflow: slot {idx} has no HeapId (ids stop below u32::MAX)"),
        }
    }
}

impl fmt::Debug for HeapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "HeapId(NONE)")
        } else {
            write!(f, "HeapId({})", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(HeapId::NONE.is_none());
        assert!(!HeapId(0).is_none());
        assert_eq!(HeapId::from_raw(HeapId::NONE.raw()), HeapId::NONE);
    }

    #[test]
    fn from_index_accepts_the_last_id_below_none() {
        let last = HeapId::from_index(u32::MAX as usize - 1);
        assert_eq!(last.raw(), u32::MAX - 1);
        assert!(!last.is_none());
        assert_eq!(HeapId::from_index(0), HeapId(0));
    }

    #[test]
    #[should_panic(expected = "heap table overflow")]
    fn from_index_panics_at_none() {
        HeapId::from_index(u32::MAX as usize);
    }

    #[test]
    fn raw_roundtrip() {
        for v in [0u32, 1, 7, 1_000_000] {
            assert_eq!(HeapId::from_raw(v).raw(), v);
        }
    }
}
