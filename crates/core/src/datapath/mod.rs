//! The Nezha data plane, decomposed by role (§3.2):
//!
//! * [`dispatch`] — the `Event` match, the arrival gate, and the NSH
//!   demux that routes each packet to its role handler;
//! * [`be`] — the stateful backend: TX origination, RX-carry
//!   consumption, notify absorption, and direct-RX bouncing;
//! * [`fe`] — the stateless frontends: TX-carry finalization and RX
//!   pre-action lookup, plus notify emission;
//! * [`ctx`] — the [`ctx::HandlerCtx`] borrowed view every handler works
//!   through.
//!
//! # The `HandlerCtx` contract
//!
//! Handlers contain *protocol logic only*. What stays on
//! [`ctx::HandlerCtx`] is every operation that binds this invocation's
//! `server`/`now` or carries logic of its own: the arrival gate, CPU
//! charging, span and trace recording, the fault-drop marker, and the
//! loss/deny/completion accounting. It has no pure forwarders: a plain
//! counter increment is `ctx.cl.tel.inc(Ctr::…)` — the closed
//! `telemetry::Ctr` vocabulary is the interface, and there is no
//! string or handle a handler could get wrong.
//!
//! Span and trace records are built only by
//! `nezha_sim::telemetry::Telemetry` (`trace_pkt`, `span_tree`,
//! `span_marker`), which `HandlerCtx::{trace, span, span_marker}` call
//! with the server bound; no `Span` or `TraceEvent` literal is written
//! anywhere else.
//!
//! A handler MAY:
//! * read/mutate protocol state through `ctx.cl` (switches, sessions,
//!   FEs, BE metadata, gateway, topology, engine scheduling);
//! * call any `HandlerCtx` method, and `ctx.cl.tel.{inc, add}`.
//!
//! A handler MUST NOT:
//! * draw from the RNG (only `lose_packet`'s jitter does, inside the
//!   driver);
//! * panic on broken invariants — degrade to a counted misroute/loss.

pub(crate) mod be;
pub(crate) mod ctx;
pub(crate) mod dispatch;
pub(crate) mod fe;
