//! Hierarchical timed spans: flame-graph-shaped latency attribution.
//!
//! A span tree records *where time went* inside one unit of work —
//! a scrub tick (pipeline stage → layer → segment), a served batch
//! (batch → decode → forward), a journal commit (write → fsync →
//! apply). Like the trace layer, spans are stamped with the
//! **driver's** clock: the deterministic simulators stamp virtual
//! nanoseconds (fixed seed ⇒ byte-identical span JSONL), the live
//! server stamps wall time since start. The span layer never reads a
//! clock of its own.
//!
//! Each node carries *self time* — its duration minus the sum of its
//! children's durations — so the overhead of the instrumented code
//! itself (and of the instrumentation) is first-class: flame-style
//! JSON export and the ASCII renderer both show it, and a tree whose
//! root self time dwarfs its children is telling you the span
//! taxonomy is missing a child, not that the work was free.

use crate::json::{array, JsonObject};
use std::fmt;
use std::sync::{Arc, Mutex};

/// One completed span: a named, tagged interval with nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Static span name (`"tick"`, `"heal"`, `"batch"`, `"fsync"`, ...).
    pub name: &'static str,
    /// Free-form numeric tag: layer index, batch occupancy, page
    /// count — whatever disambiguates siblings of the same name.
    pub tag: u64,
    /// Driver clock at open, nanoseconds.
    pub start_ns: u64,
    /// Driver clock at close, nanoseconds.
    pub end_ns: u64,
    /// Completed child spans, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall (or virtual) duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Self time: duration minus the children's total duration —
    /// the time this span spent *not* inside a child (including the
    /// instrumentation's own overhead at this level).
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.duration_ns()).sum();
        self.duration_ns().saturating_sub(child_ns)
    }

    /// Total number of nodes in the tree rooted here.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::node_count)
            .sum::<usize>()
    }

    /// Renders the tree as one deterministic flame-style JSON object
    /// (fixed field order; `self_ns` is materialized so consumers do
    /// not re-derive it).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("name", self.name)
            .raw("tag", self.tag)
            .raw("start_ns", self.start_ns)
            .raw("end_ns", self.end_ns)
            .raw("self_ns", self.self_ns())
            .raw(
                "children",
                array(self.children.iter().map(SpanNode::to_json)),
            )
            .finish()
    }
}

/// A span-tree builder over the driver's clock: `open` pushes a span,
/// `close` pops it onto its parent (or the finished-roots list), and
/// [`SpanTree::finish`] closes anything still open — a run that ends
/// mid-incident still yields a well-formed tree, with the unclosed
/// spans clamped to the finish stamp.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    stack: Vec<SpanNode>,
    roots: Vec<SpanNode>,
}

impl SpanTree {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a child of the innermost open span (or a new root).
    pub fn open(&mut self, ns: u64, name: &'static str, tag: u64) {
        self.stack.push(SpanNode {
            name,
            tag,
            start_ns: ns,
            end_ns: ns,
            children: Vec::new(),
        });
    }

    /// Closes the innermost open span at `ns`.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced close is a driver
    /// bug, not a recoverable condition).
    pub fn close(&mut self, ns: u64) {
        let mut node = self.stack.pop().expect("close without open");
        node.end_ns = node.end_ns.max(ns);
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.roots.push(node),
        }
    }

    /// Number of currently open (unclosed) spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// True when nothing was ever opened (and nothing completed).
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty() && self.roots.is_empty()
    }

    /// Closes every still-open span at `ns` and drains the completed
    /// roots, oldest first. The builder is reusable afterwards.
    pub fn finish(&mut self, ns: u64) -> Vec<SpanNode> {
        while !self.stack.is_empty() {
            self.close(ns);
        }
        std::mem::take(&mut self.roots)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn render_into(node: &SpanNode, depth: usize, out: &mut String) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "{} #{} [{:.1}us..{:.1}us] {:.1}us (self {:.1}us)\n",
        node.name,
        node.tag,
        us(node.start_ns),
        us(node.end_ns),
        us(node.duration_ns()),
        us(node.self_ns()),
    ));
    for child in &node.children {
        render_into(child, depth + 1, out);
    }
}

/// Renders a span tree as an indented ASCII flame view, one line per
/// span: `name #tag [start..end] duration (self …)`.
pub fn render_flame(root: &SpanNode) -> String {
    let mut out = String::new();
    render_into(root, 0, &mut out);
    out
}

#[derive(Debug, Default)]
struct SpanRingState {
    trees: Vec<SpanNode>,
    head: usize,
    dropped: u64,
}

/// A bounded ring of completed span trees: keeps the most recent
/// `capacity` roots, counting (never silently losing) overwrites —
/// the `/spans` endpoint serves its tail.
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    state: Mutex<SpanRingState>,
}

impl SpanRing {
    /// A ring holding at most `capacity` trees (min 1).
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            capacity: capacity.max(1),
            state: Mutex::new(SpanRingState::default()),
        }
    }

    /// Pushes one completed tree, overwriting the oldest when full.
    pub fn push(&self, tree: SpanNode) {
        let mut state = self.state.lock().unwrap();
        if state.trees.len() < self.capacity {
            state.trees.push(tree);
        } else {
            let head = state.head;
            state.trees[head] = tree;
            state.head = (head + 1) % self.capacity;
            state.dropped += 1;
        }
    }

    /// Trees overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }

    /// Number of retained trees.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().trees.len()
    }

    /// True when no tree has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained trees, oldest first.
    pub fn trees(&self) -> Vec<SpanNode> {
        let state = self.state.lock().unwrap();
        if state.trees.len() < self.capacity {
            state.trees.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&state.trees[state.head..]);
            out.extend_from_slice(&state.trees[..state.head]);
            out
        }
    }

    /// Renders the retained trees as JSONL, one flame-style tree per
    /// line, each line newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for tree in self.trees() {
            out.push_str(&tree.to_json());
            out.push('\n');
        }
        out
    }
}

/// A cloneable handle over a shared [`SpanRing`]. Like
/// [`TraceHandle`](crate::TraceHandle), it carries no clock — drivers
/// stamp spans themselves.
#[derive(Clone)]
pub struct SpanHandle(Arc<SpanRing>);

impl fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SpanHandle(..)")
    }
}

impl SpanHandle {
    /// Wraps a shared ring.
    pub fn new(ring: Arc<SpanRing>) -> Self {
        SpanHandle(ring)
    }

    /// Pushes one completed tree into the ring.
    #[inline]
    pub fn push(&self, tree: SpanNode) {
        self.0.push(tree);
    }

    /// Pushes every root produced by [`SpanTree::finish`].
    pub fn push_all(&self, trees: Vec<SpanNode>) {
        for tree in trees {
            self.0.push(tree);
        }
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Arc<SpanRing> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time_account_correctly() {
        let mut tree = SpanTree::new();
        tree.open(0, "tick", 3);
        tree.open(10, "scrub", 0);
        tree.close(40);
        tree.open(40, "heal", 1);
        tree.open(45, "layer", 1);
        tree.close(70);
        tree.close(80);
        tree.close(100);
        let roots = tree.finish(100);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "tick");
        assert_eq!(root.duration_ns(), 100);
        // 100 total − (30 scrub + 40 heal) = 30 self.
        assert_eq!(root.self_ns(), 30);
        let heal = &root.children[1];
        assert_eq!(heal.self_ns(), 40 - 25);
        assert_eq!(root.node_count(), 4);
    }

    #[test]
    fn finish_closes_unclosed_children_at_the_end_stamp() {
        // A sim that ends mid-incident leaves spans open; finish must
        // clamp them all to the final clock and still build one tree.
        let mut tree = SpanTree::new();
        tree.open(5, "tick", 0);
        tree.open(7, "heal", 2);
        tree.open(9, "layer", 2);
        let roots = tree.finish(20);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.end_ns, 20);
        assert_eq!(root.children[0].end_ns, 20);
        assert_eq!(root.children[0].children[0].end_ns, 20);
        assert_eq!(root.children[0].children[0].duration_ns(), 11);
        assert_eq!(tree.depth(), 0, "builder is reusable after finish");
    }

    #[test]
    fn json_is_deterministic_and_carries_self_ns() {
        let mut tree = SpanTree::new();
        tree.open(0, "batch", 4);
        tree.open(1, "decode", 0);
        tree.close(3);
        tree.open(3, "forward", 0);
        tree.close(9);
        tree.close(10);
        let root = tree.finish(10).pop().unwrap();
        assert_eq!(
            root.to_json(),
            "{\"name\":\"batch\",\"tag\":4,\"start_ns\":0,\"end_ns\":10,\"self_ns\":2,\
             \"children\":[{\"name\":\"decode\",\"tag\":0,\"start_ns\":1,\"end_ns\":3,\
             \"self_ns\":2,\"children\":[]},{\"name\":\"forward\",\"tag\":0,\"start_ns\":3,\
             \"end_ns\":9,\"self_ns\":6,\"children\":[]}]}"
        );
        let flame = render_flame(&root);
        assert!(flame.starts_with("batch #4 "));
        assert!(flame.contains("\n  decode #0 "));
        assert!(flame.contains("(self 0.0us)"));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = SpanRing::new(2);
        for i in 0..5u64 {
            let mut tree = SpanTree::new();
            tree.open(i, "t", i);
            ring.push(tree.finish(i + 1).pop().unwrap());
        }
        assert_eq!(ring.dropped(), 3);
        let trees = ring.trees();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].tag, 3, "oldest kept is #3");
        assert_eq!(ring.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn empty_tree_finishes_to_nothing() {
        let mut tree = SpanTree::new();
        assert!(tree.is_empty());
        assert!(tree.finish(100).is_empty());
    }
}
