//! Weakly connected components (Table 2 reports the LWCC size per dataset).

use crate::cast::u32_of;
use crate::csr::{Graph, NodeId};

/// Summary of the weakly-connected-component structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WccSummary {
    /// Number of components.
    pub count: usize,
    /// Size of the largest component (LWCC, as in Table 2).
    pub largest: usize,
}

/// Computes weakly connected components by BFS over the union of forward and
/// reverse adjacency. Runs in `O(n + m)`.
pub fn weakly_connected_components(g: &Graph) -> WccSummary {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut queue: Vec<NodeId> = Vec::new();
    let mut count = 0usize;
    let mut largest = 0usize;

    for start in 0..u32_of(n) {
        if seen[start as usize] {
            continue;
        }
        count += 1;
        seen[start as usize] = true;
        queue.clear();
        queue.push(start);
        let mut size = 0usize;
        while let Some(u) = queue.pop() {
            size += 1;
            let out = g.out_edges(u).map(|(v, _)| v);
            for v in out.chain(g.in_edges(u).map(|(v, _)| v)) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        largest = largest.max(size);
    }

    WccSummary { count, largest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn two_islands() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(3, 4).unwrap();
        let s = weakly_connected_components(&b.build().unwrap());
        assert_eq!(s.count, 2);
        assert_eq!(s.largest, 3);
    }

    #[test]
    fn direction_ignored() {
        // 0 <- 1 <- 2 is weakly connected even though 0 reaches nothing.
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 0).unwrap();
        b.add_edge(2, 1).unwrap();
        let s = weakly_connected_components(&b.build().unwrap());
        assert_eq!(s.count, 1);
        assert_eq!(s.largest, 3);
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let b = GraphBuilder::new(4);
        let s = weakly_connected_components(&b.build().unwrap());
        assert_eq!(s.count, 4);
        assert_eq!(s.largest, 1);
    }

    #[test]
    fn empty_graph() {
        let s = weakly_connected_components(&GraphBuilder::new(0).build().unwrap());
        assert_eq!(s.count, 0);
        assert_eq!(s.largest, 0);
    }
}
