//! The stage-combinator core: rule-table stages composed into a
//! [`StageGraph`].
//!
//! A [`Stage`] reads one vNIC's rule tables and writes the packet's
//! [`PktCtx`], returning a [`StageVerdict`]. Stages compose with four
//! combinators:
//!
//! * [`seq`] — run stages in order, short-circuiting on [`StageVerdict::Stop`];
//! * [`branch`] — predicate-selected alternative subgraphs;
//! * [`tee`] — a side-effect tap whose verdict never gates the pipeline;
//! * [`guard`] — a predicate-gated optional subgraph.
//!
//! [`StageGraph::compile`] rejects empty `seq`s and inventories the
//! stage names once at construction.

use super::PktCtx;
use crate::vnic::Vnic;
use std::fmt;

/// What a stage tells the graph walker after evaluating.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageVerdict {
    /// Proceed to the next stage.
    Continue,
    /// Terminal: skip the rest of the graph.
    Stop,
}

/// One rule-table stage: packet context in, [`StageVerdict`] out.
///
/// Stages must be pure over `(ctx, vnic)` — everything they read or
/// write lives in the context or in the vNIC's tables, never in the
/// stage value itself. That is what lets one compiled graph serve every
/// packet and every role (local, FE) alike.
pub trait Stage: fmt::Debug + Send + Sync {
    /// Stable stage name (graph inventory, docs).
    fn name(&self) -> &'static str;

    /// Evaluates the stage for one packet against `vnic`'s tables.
    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict;
}

/// A stage predicate: branch/guard selectors over the packet context.
/// Plain function pointers keep nodes `Debug + Send + Sync` and
/// allocation-free to evaluate.
pub type Pred = fn(&PktCtx) -> bool;

/// One node of a stage graph: a stage or a combinator over subgraphs.
pub enum Node {
    /// A leaf stage.
    Stage(Box<dyn Stage>),
    /// Ordered composition; stops at the first [`StageVerdict::Stop`].
    Seq(Vec<Node>),
    /// Predicate-selected alternatives.
    Branch {
        /// Branch name (docs, `Debug`).
        name: &'static str,
        /// Selector: `true` evaluates `then_node`, `false` `else_node`.
        pred: Pred,
        /// Taken when the predicate holds.
        then_node: Box<Node>,
        /// Taken otherwise.
        else_node: Box<Node>,
    },
    /// A side-effect tap: the subgraph runs, its verdict is ignored.
    Tee(Box<Node>),
    /// A predicate-gated subgraph; skipped (as `Continue`) when the
    /// predicate is false.
    Guard {
        /// Guard name (docs, `Debug`).
        name: &'static str,
        /// Gate: the subgraph runs only when this holds.
        pred: Pred,
        /// The gated subgraph.
        inner: Box<Node>,
    },
}

/// Wraps a stage value as a graph node.
pub fn stage<S: Stage + 'static>(s: S) -> Node {
    Node::Stage(Box::new(s))
}

/// Sequential composition of `nodes` (must be non-empty at compile).
pub fn seq(nodes: Vec<Node>) -> Node {
    Node::Seq(nodes)
}

/// Predicate-selected alternative subgraphs.
pub fn branch(name: &'static str, pred: Pred, then_node: Node, else_node: Node) -> Node {
    Node::Branch {
        name,
        pred,
        then_node: Box::new(then_node),
        else_node: Box::new(else_node),
    }
}

/// A side-effect tap: `inner` runs but can never stop the pipeline.
pub fn tee(inner: Node) -> Node {
    Node::Tee(Box::new(inner))
}

/// A predicate-gated subgraph.
pub fn guard(name: &'static str, pred: Pred, inner: Node) -> Node {
    Node::Guard {
        name,
        pred,
        inner: Box::new(inner),
    }
}

impl Node {
    fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        match self {
            Node::Stage(s) => s.eval(ctx, vnic),
            Node::Seq(nodes) => {
                for n in nodes {
                    if n.eval(ctx, vnic) == StageVerdict::Stop {
                        return StageVerdict::Stop;
                    }
                }
                StageVerdict::Continue
            }
            Node::Branch {
                pred,
                then_node,
                else_node,
                ..
            } => {
                if pred(ctx) {
                    then_node.eval(ctx, vnic)
                } else {
                    else_node.eval(ctx, vnic)
                }
            }
            Node::Tee(inner) => {
                let _ = inner.eval(ctx, vnic);
                StageVerdict::Continue
            }
            Node::Guard { pred, inner, .. } => {
                if pred(ctx) {
                    inner.eval(ctx, vnic)
                } else {
                    StageVerdict::Continue
                }
            }
        }
    }

    /// Appends this subtree's stage names in pre-order, rejecting empty
    /// `seq`s along the way.
    fn collect_names(&self, out: &mut Vec<&'static str>) -> Result<(), GraphError> {
        match self {
            Node::Stage(s) => {
                out.push(s.name());
                Ok(())
            }
            Node::Seq(nodes) if nodes.is_empty() => Err(GraphError::EmptySeq),
            Node::Seq(nodes) => nodes.iter().try_for_each(|n| n.collect_names(out)),
            Node::Branch {
                then_node,
                else_node,
                ..
            } => {
                then_node.collect_names(out)?;
                else_node.collect_names(out)
            }
            Node::Tee(inner) | Node::Guard { inner, .. } => inner.collect_names(out),
        }
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Stage(s) => write!(f, "{}", s.name()),
            Node::Seq(nodes) => f.debug_list().entries(nodes).finish(),
            Node::Branch {
                name,
                then_node,
                else_node,
                ..
            } => f
                .debug_struct("branch")
                .field("name", name)
                .field("then", then_node)
                .field("else", else_node)
                .finish(),
            Node::Tee(inner) => f.debug_tuple("tee").field(inner).finish(),
            Node::Guard { name, inner, .. } => f
                .debug_struct("guard")
                .field("name", name)
                .field("inner", inner)
                .finish(),
        }
    }
}

/// Why a composition failed to compile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// A `seq` combinator with no stages.
    EmptySeq,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptySeq => write!(f, "seq combinator with no stages"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated stage graph: the composition plus its stage inventory.
pub struct StageGraph {
    root: Node,
    names: Vec<&'static str>,
}

impl StageGraph {
    /// Validates the composition and inventories its stages.
    pub fn compile(root: Node) -> Result<Self, GraphError> {
        let mut names = Vec::new();
        root.collect_names(&mut names)?;
        Ok(StageGraph { root, names })
    }

    /// Walks the graph for one packet context over `vnic`'s tables.
    pub fn eval(&self, ctx: &mut PktCtx, vnic: &Vnic) -> StageVerdict {
        self.root.eval(ctx, vnic)
    }

    /// Stage names in evaluation (pre-)order, both branch arms included.
    pub fn stage_names(&self) -> &[&'static str] {
        &self.names
    }

    /// True when a stage of this name is part of the graph.
    pub fn contains_stage(&self, name: &str) -> bool {
        self.names.contains(&name)
    }
}

impl fmt::Debug for StageGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageGraph")
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
#[path = "graph_tests.rs"]
mod tests;
