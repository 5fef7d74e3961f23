//! Strongly typed identifiers for graph nodes and edges.
//!
//! Both [`NodeId`] and [`EdgeId`] are thin dense `u32` indices into a
//! [`Graph`](crate::Graph). They are deliberately cheap to copy and order so
//! that analyses can use them as array indices via [`NodeId::index`] /
//! [`EdgeId::index`].

use std::fmt;

/// Identifier of a node inside a [`Graph`](crate::Graph).
///
/// Node ids are dense: the nodes of a graph with `n` nodes are exactly
/// `NodeId::from_index(0..n)`, which makes `Vec`-indexed side tables the
/// idiomatic way to attach analysis results to nodes.
///
/// # Examples
///
/// ```
/// use pst_cfg::NodeId;
/// let n = NodeId::from_index(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

/// Identifier of a directed edge inside a [`Graph`](crate::Graph).
///
/// Edge ids are dense in the same way as [`NodeId`]s. A multigraph may
/// contain several distinct edges with the same endpoints; their `EdgeId`s
/// distinguish them.
///
/// # Examples
///
/// ```
/// use pst_cfg::EdgeId;
/// let e = EdgeId::from_index(7);
/// assert_eq!(e.index(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Creates an edge id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index overflows u32"))
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 41, 65535] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn edge_id_roundtrip() {
        for i in [0usize, 1, 41, 65535] {
            assert_eq!(EdgeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", NodeId::from_index(5)), "n5");
        assert_eq!(format!("{:?}", EdgeId::from_index(5)), "e5");
        assert_eq!(format!("{}", NodeId::from_index(5)), "n5");
        assert_eq!(format!("{}", EdgeId::from_index(5)), "e5");
    }

    #[test]
    #[should_panic(expected = "node index overflows")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
