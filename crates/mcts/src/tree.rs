//! The arena-allocated search tree.

use spear_cluster::{Action, SimState};
use spear_dag::Dag;

/// Index of a node in the [`Tree`] arena.
pub type NodeId = usize;

/// One search-tree node: MCTS statistics for one reachable state.
///
/// Nodes do **not** store their simulation state. The search reconstructs a
/// leaf's state by replaying the action path into a reusable scratch state
/// during selection — replays are a handful of cheap `apply` calls, while
/// storing a state per node costs a multi-`Vec` clone on every expansion
/// and bloats the arena until UCB selection is bound on cache misses.
///
/// Values are rollout *returns* (negative makespans), so larger is better.
/// Both the maximum and the sum of returns are tracked: selection and the
/// final move exploit the maximum (paper Eq. 5) and tie-break on the mean.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// Expanded children and the actions that reach them, in expansion
    /// order.
    pub children: Vec<(Action, NodeId)>,
    /// Legal actions not yet expanded.
    pub untried: Vec<Action>,
    /// Whether the node's state is terminal.
    pub terminal: bool,
    /// Exact return of the completed schedule (only meaningful when
    /// `terminal`; recorded at expansion so terminal reinforcement does not
    /// need the state).
    pub terminal_value: f64,
    /// Number of rollouts that passed through this node.
    pub visits: u64,
    /// Best rollout return seen through this node.
    pub max_value: f64,
    /// Sum of rollout returns (for the mean tiebreak).
    pub sum_value: f64,
}

impl Node {
    /// A fresh, unvisited node below `parent` for `state` of `dag`: its
    /// untried actions are the state's legal actions, and a state without
    /// any is terminal, valued at the exact return of its completed
    /// schedule.
    pub fn fresh(parent: Option<NodeId>, state: &SimState, dag: &Dag) -> Self {
        let untried = state.legal_actions(dag);
        let terminal = untried.is_empty();
        let terminal_value = if terminal {
            -(state.makespan().unwrap_or(0) as f64)
        } else {
            0.0
        };
        Node {
            parent,
            children: Vec::new(),
            untried,
            terminal,
            terminal_value,
            visits: 0,
            max_value: f64::NEG_INFINITY,
            sum_value: 0.0,
        }
    }

    /// Mean rollout return (`-inf` before the first visit).
    pub fn mean_value(&self) -> f64 {
        if self.visits == 0 {
            f64::NEG_INFINITY
        } else {
            self.sum_value / self.visits as f64
        }
    }

    /// Whether every legal action has been expanded.
    pub fn fully_expanded(&self) -> bool {
        self.untried.is_empty()
    }
}

/// A growable arena of [`Node`]s. Subtree reuse across decisions is
/// implemented by moving the root id; stale siblings stay in the arena
/// until the search ends (bounded by the total iteration budget).
#[derive(Debug, Clone, Default)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Tree::default()
    }

    /// Number of nodes ever allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Allocates a node and returns its id.
    pub fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Allocates the [fresh](Node::fresh) node of `state`, reached from
    /// `parent` by `action`, and links it as `parent`'s newest child.
    pub fn push_child(
        &mut self,
        parent: NodeId,
        action: Action,
        state: &SimState,
        dag: &Dag,
    ) -> NodeId {
        let id = self.push(Node::fresh(Some(parent), state, dag));
        self.nodes[parent].children.push((action, id));
        id
    }

    /// Propagates a rollout return from `id` up to `stop` inclusive, then
    /// halts, incrementing visits and updating max and sum on the way.
    /// After the search re-roots (see `MctsSearch::advance`), nodes above
    /// the current root are never consulted again, so updating them is
    /// pure waste — and the wasted path grows with every committed
    /// decision. `stop` must be an ancestor of `id` (or `id` itself).
    pub fn backpropagate_to(&mut self, mut id: NodeId, stop: NodeId, value: f64) {
        loop {
            let node = &mut self.nodes[id];
            node.visits += 1;
            node.max_value = node.max_value.max(value);
            node.sum_value += value;
            if id == stop {
                break;
            }
            match node.parent {
                Some(p) => id = p,
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_node(parent: Option<NodeId>) -> Node {
        Node {
            parent,
            children: Vec::new(),
            untried: Vec::new(),
            terminal: false,
            terminal_value: 0.0,
            visits: 0,
            max_value: f64::NEG_INFINITY,
            sum_value: 0.0,
        }
    }

    #[test]
    fn push_and_depth() {
        let mut tree = Tree::new();
        let root = tree.push(make_node(None));
        let child = tree.push(make_node(Some(root)));
        let grandchild = tree.push(make_node(Some(child)));
        assert_eq!(tree.node(root).parent, None);
        assert_eq!(tree.node(child).parent, Some(root));
        assert_eq!(tree.node(grandchild).parent, Some(child));
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn backpropagation_updates_all_ancestors() {
        let mut tree = Tree::new();
        let root = tree.push(make_node(None));
        let child = tree.push(make_node(Some(root)));
        let grandchild = tree.push(make_node(Some(child)));
        tree.backpropagate_to(grandchild, root, -50.0);
        tree.backpropagate_to(grandchild, root, -30.0);
        let r = tree.node(root);
        assert_eq!(r.visits, 2);
        assert_eq!(r.max_value, -30.0);
        assert_eq!(r.sum_value, -80.0);
        assert_eq!(r.mean_value(), -40.0);
        let c = tree.node(child);
        assert_eq!(c.visits, 2);
        assert_eq!(c.max_value, -30.0);
        // Stopping at `child` leaves the root untouched.
        tree.backpropagate_to(grandchild, child, -10.0);
        assert_eq!(tree.node(child).visits, 3);
        assert_eq!(tree.node(root).visits, 2);
    }

    #[test]
    fn mean_value_of_unvisited_is_neg_infinity() {
        let node = make_node(None);
        assert_eq!(node.mean_value(), f64::NEG_INFINITY);
        assert!(node.fully_expanded());
    }
}
