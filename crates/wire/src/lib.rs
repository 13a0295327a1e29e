//! # fargo-wire — the marshal layer of FarGo-RS
//!
//! FarGo moves complets between Cores by *marshaling*: traversing the moved
//! complet's object graph into a byte stream, detecting every outgoing
//! complet reference on the way, and applying a per-relocator routine to it
//! (paper §3.3). The original system piggybacked on Java Serialization;
//! this crate is the Rust substitute.
//!
//! It provides:
//!
//! * [`Value`] — a self-describing runtime value tree, the representation
//!   of complet state and invocation parameters. Complet references embed
//!   as [`Value::Ref`] nodes carrying a [`RefDescriptor`], which is exactly
//!   the hook the movement and invocation units need in order to apply
//!   relocation semantics during traversal. A record ([`Value::Map`]) is
//!   a [`ValueMap`]: one sorted allocation whose keys the decoder shares
//!   among the records of a message, and a string ([`Value::Str`]) is a
//!   [`Text`]: short ones live in the node.
//! * [`CompletId`] — globally unique complet instance identity.
//! * A compact binary codec ([`encode_value`] / [`decode_value`], plus the
//!   lower-level [`WireWriter`] / [`WireReader`]) with varint integers,
//!   short forms, and field names sent once per record shape per value.
//!
//! ```
//! use fargo_wire::{decode_value, encode_value, Value};
//!
//! # fn main() -> Result<(), fargo_wire::WireError> {
//! let v = Value::from(vec![Value::from(1i64), Value::from("two")]);
//! let bytes = encode_value(&v);
//! assert_eq!(decode_value(&bytes)?, v);
//! # Ok(())
//! # }
//! ```

mod codec;
mod error;
mod id;
mod map;
mod refdesc;
#[doc(hidden)]
pub mod testgen;
mod text;
mod value;
mod varint;

pub use codec::{
    decode_value, decode_value_from_bytes, encode_value, WireReader, WireWriter, MAX_BLOB_BYTES,
    MAX_COLLECTION_ITEMS,
};
pub use error::WireError;
pub use id::{CompletId, ParseCompletIdError};
pub use map::{Key, ValueMap};
pub use refdesc::RefDescriptor;
pub use text::Text;
pub use value::Value;
