//! Globally unique complet instance identity.

use std::fmt;
use std::str::FromStr;

/// Identity of one complet *instance*, stable across relocation.
///
/// A `CompletId` is minted by the Core that instantiates the complet (its
/// *origin*) and never changes afterwards, however many times the complet
/// moves. Trackers, naming entries, and reference descriptors all key on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompletId {
    /// Index of the origin Core's network node.
    pub origin: u32,
    /// Origin-local allocation counter.
    pub seq: u64,
}

impl CompletId {
    /// Creates an id from its origin node index and allocation counter.
    pub fn new(origin: u32, seq: u64) -> Self {
        CompletId { origin, seq }
    }
}

impl fmt::Display for CompletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.{}", self.origin, self.seq)
    }
}

/// A string that is not the `c<origin>.<seq>` rendering of a [`CompletId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseCompletIdError;

impl fmt::Display for ParseCompletIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "complet id is not of the form c<origin>.<seq>")
    }
}

impl std::error::Error for ParseCompletIdError {}

/// Parses what [`CompletId`]'s `Display` writes (journal subjects,
/// event keys, shell arguments).
impl FromStr for CompletId {
    type Err = ParseCompletIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parse = || {
            let (origin, seq) = s.strip_prefix('c')?.split_once('.')?;
            Some(CompletId::new(origin.parse().ok()?, seq.parse().ok()?))
        };
        parse().ok_or(ParseCompletIdError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_identity() {
        let id = CompletId::new(2, 40);
        assert_eq!(id.to_string(), "c2.40");
        assert_eq!("c2.40".parse(), Ok(id));
        for bad in ["nope", "c3", "x2.9", "c29", "c-1.2", "c1.x", ""] {
            assert_eq!(bad.parse::<CompletId>(), Err(ParseCompletIdError), "{bad}");
        }
        assert_eq!(id, CompletId::new(2, 40));
        assert_ne!(id, CompletId::new(3, 40));
    }

    #[test]
    fn ordering_is_origin_major() {
        assert!(CompletId::new(1, 99) < CompletId::new(2, 0));
        assert!(CompletId::new(1, 1) < CompletId::new(1, 2));
    }
}
