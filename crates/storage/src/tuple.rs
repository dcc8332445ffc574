//! Tuple identities. The tuples themselves are rows of a
//! [`crate::Relation`]'s value array, borrowed as `&[Value]`.

use crate::schema::RelId;
use std::fmt;

/// Stable identity of a tuple within an [`crate::Instance`].
///
/// Identities survive state changes: deleting a tuple flips bits in a
/// [`crate::State`], it never reindexes storage. Repair results, provenance
/// nodes and SAT variables all refer to tuples through `TupleId`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId {
    /// Owning relation.
    pub rel: RelId,
    /// Row index within the relation's append-only store.
    pub row: u32,
}

impl TupleId {
    /// Construct from parts.
    pub fn new(rel: RelId, row: u32) -> TupleId {
        TupleId { rel, row }
    }

    /// Row index as `usize`.
    #[inline]
    pub fn row_idx(self) -> usize {
        self.row as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.rel.0, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_ordering() {
        let a = TupleId::new(RelId(0), 5);
        let b = TupleId::new(RelId(1), 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "t0.5");
    }
}
