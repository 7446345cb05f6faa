//! Unit tests for the combinator core (split out to keep `graph.rs`
//! under the vswitch 600-line file-size cap).

use super::*;
use crate::vnic::VnicProfile;
use nezha_types::{Direction, FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use std::sync::{Arc, Mutex};

/// The order in which [`Mark`] stages ran.
type Hits = Arc<Mutex<Vec<&'static str>>>;

/// Logs its name when evaluated and returns a fixed verdict.
#[derive(Debug)]
struct Mark(&'static str, StageVerdict, Hits);
impl Stage for Mark {
    fn name(&self) -> &'static str {
        self.0
    }
    fn eval(&self, _ctx: &mut PktCtx, _vnic: &Vnic) -> StageVerdict {
        self.2.lock().unwrap().push(self.0);
        self.1
    }
}

fn mark(hits: &Hits, name: &'static str, verdict: StageVerdict) -> Node {
    stage(Mark(name, verdict, Arc::clone(hits)))
}

/// The predicate the tests select on: the context's direction.
fn is_tx(c: &PktCtx) -> bool {
    c.dir == Direction::Tx
}

/// Evaluates `g` for a packet in `dir`; returns the verdict.
fn run(g: &StageGraph, dir: Direction) -> StageVerdict {
    let addr = Ipv4Addr::new(10, 7, 0, 1);
    let profile = VnicProfile {
        acl_rules: 0,
        routes: 0,
        vnic_server_entries: 0,
        ..VnicProfile::default()
    };
    let vnic = Vnic::new(VnicId(1), VpcId(1), addr, profile, ServerId(0));
    let mut ctx = PktCtx::new(FiveTuple::tcp(addr, 1, addr, 2), dir);
    g.eval(&mut ctx, &vnic)
}

fn taken(hits: &Hits) -> Vec<&'static str> {
    std::mem::take(&mut *hits.lock().unwrap())
}

#[test]
fn seq_short_circuits_on_stop() {
    let hits = Hits::default();
    let g = StageGraph::compile(seq(vec![
        mark(&hits, "a", StageVerdict::Continue),
        mark(&hits, "b", StageVerdict::Stop),
        mark(&hits, "c", StageVerdict::Continue),
    ]))
    .unwrap();
    assert_eq!(run(&g, Direction::Tx), StageVerdict::Stop);
    assert_eq!(taken(&hits), ["a", "b"]);
    assert_eq!(g.stage_names(), ["a", "b", "c"]);
    assert!(g.contains_stage("c"));
}

#[test]
fn branch_selects_by_predicate_and_guard_gates() {
    let hits = Hits::default();
    let g = StageGraph::compile(seq(vec![
        branch(
            "side",
            is_tx,
            mark(&hits, "then", StageVerdict::Continue),
            mark(&hits, "else", StageVerdict::Continue),
        ),
        guard("opt", is_tx, mark(&hits, "gated", StageVerdict::Continue)),
    ]))
    .unwrap();
    run(&g, Direction::Tx);
    assert_eq!(taken(&hits), ["then", "gated"]);
    run(&g, Direction::Rx);
    assert_eq!(taken(&hits), ["else"]);
}

#[test]
fn tee_never_stops_the_pipeline() {
    let hits = Hits::default();
    let g = StageGraph::compile(seq(vec![
        tee(mark(&hits, "tap", StageVerdict::Stop)),
        mark(&hits, "after", StageVerdict::Continue),
    ]))
    .unwrap();
    assert_eq!(run(&g, Direction::Tx), StageVerdict::Continue);
    assert_eq!(taken(&hits), ["tap", "after"]);
}

#[test]
fn compile_rejects_empty_seq() {
    assert_eq!(
        StageGraph::compile(seq(vec![])).unwrap_err(),
        GraphError::EmptySeq
    );
    let hits = Hits::default();
    let nested = guard("g", is_tx, tee(seq(vec![])));
    assert_eq!(
        StageGraph::compile(seq(vec![mark(&hits, "a", StageVerdict::Continue), nested]))
            .unwrap_err(),
        GraphError::EmptySeq
    );
}
