//! # hh-objmodel — object model and chunked memory substrate
//!
//! This crate provides the lowest layer of the hierarchical-heap runtime described in
//! *Hierarchical Memory Management for Mutable State* (Guatto et al., PPoPP 2018): the
//! representation of heap objects and of the memory *chunks* they live in.
//!
//! In the paper's MLton-based implementation, a heap is "a linked-list of variable-sized
//! memory regions called chunks", and the heap owning an arbitrary pointer is found "by
//! looking up the chunk metadata using address masking". We reproduce the same structure
//! in safe Rust:
//!
//! * an [`ObjPtr`] packs a *(chunk id, word offset)* pair into 64 bits,
//! * a [`Chunk`] is a fixed block of `AtomicU64` words with bump-pointer allocation,
//!   a generation tag, and a reset-for-reuse operation,
//! * the [`ChunkStore`] is an append-only table mapping chunk ids to chunks (the stand-in
//!   for address-mask metadata lookup) **plus the chunk memory lifecycle**: retired
//!   chunks are quarantined, reclaimed into size-classed lock-free free lists at the
//!   reuse horizon, and served back out by one lock-free pop-or-mint path (memory
//!   v2, DESIGN.md §5), and
//! * an [`ObjView`] gives structured access to one object: its [`Header`], its dedicated
//!   forwarding-pointer slot, and its pointer / non-pointer fields.
//!
//! Every object word is an `AtomicU64` because mutable fields may be accessed concurrently
//! with promotions installing forwarding pointers; a plain data race would be undefined
//! behaviour in Rust, so all accesses go through atomics with the orderings documented on
//! each accessor.
//!
//! Nothing in this crate knows about heaps, tasks, or garbage collection; those live in
//! `hh-heaps`, `hh-sched`, and `hh-runtime`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appendvec;
pub mod chunk;
pub mod epoch;
pub mod header;
pub mod objptr;
pub mod store;
pub mod view;

pub use appendvec::AppendVec;
pub use chunk::{Chunk, ChunkForensics, ChunkGcState, ChunkId, RAW_HEAP_NONE};
pub use epoch::RunEpochs;
pub use header::{Header, ObjKind};
pub use objptr::{ObjPtr, MAX_CHUNK_WORDS};
pub use store::{ChunkStore, StoreStats};
pub use view::{ObjView, OFF_FIELDS, OFF_FWD, OFF_HEADER};
