//! FMM-as-a-service: a resident multi-tenant evaluation server.
//!
//! Every bench binary used to build a tree, run one evaluation, and exit.
//! This module keeps the expensive state — the source tree and its
//! upward-pass expansions — resident behind a TCP endpoint and serves
//! streams of *query requests* (arbitrary target batches) from many
//! concurrent clients:
//!
//! ```text
//! client ──EvalRequest──▶ reader ──▶ admission ──▶ aggregator ─┐
//!                                      (shed)                  │ fused
//! client ◀─EvalResponse── writer ◀─── segments ◀── engine ◀────┘ tile
//! ```
//!
//! - **Framing** rides the PR-2 wire format: requests and responses are
//!   CRC-32-checked, versioned [`FrameKind::EvalRequest`] /
//!   [`FrameKind::EvalResponse`] frames, decoded by the same hostile-input
//!   hardened [`FrameDecoder`] the transport uses — garbage never panics,
//!   it kills the one connection that sent it.
//! - **Aggregation**: small target batches from many clients are coalesced
//!   into one fused SoA tile (up to [`ServiceConfig::tile_targets`]
//!   targets) before hitting the particle engine, so the per-call cost of
//!   the batched kernels is amortised across tenants the way the
//!   `EdgeBatcher` amortises DAG edges.  Accounting is exact: every
//!   admitted target is eventually drained, answered, or purged with its
//!   connection, and the three tallies reconcile
//!   ([`RequestAggregator::accounting`]).
//! - **Admission control**: per-tenant and global bounds on queued
//!   targets.  A request that would overflow its bound is *shed* with an
//!   immediate [`RespStatus::Shed`] response instead of queueing without
//!   bound — the same philosophy as the transport's bounded send queues,
//!   but surfaced to the client as an explicit retry signal.
//! - **Observability**: every request is decomposed into a telescoping
//!   `queue / fuse / compute / reply` phase breakdown (the four
//!   boundaries are single timestamps, so the phases sum to the
//!   end-to-end latency exactly).  The breakdown is echoed in each
//!   [`FrameKind::EvalResponse`], recorded into the streaming
//!   log-bucketed histograms of a [`dashmm_obs::TelemetryHub`]
//!   (lock-free, bounded memory).  The hub and the counters under the
//!   core lock are the server's one record: any client may poll it as a
//!   live JSON stats snapshot (`dashmm-stats-v2`) with a
//!   [`FrameKind::StatsRequest`] frame — counters, per-phase latency
//!   histograms, queue depths, step-engine reuse ratios, uptime, and
//!   interval-windowed deltas so rates are computable from two polls.
//! - **Codec**: every body is written through `dashmm_obs::codec`'s
//!   `BodyWriter` and read through its bounds-checked `BodyCursor`, so a
//!   truncated, trailing or hostile-count body is a [`WireError`], never a
//!   panic.  Values that decode but cannot be computed (a non-finite
//!   target, delta or charge) are refused whole as
//!   [`RespStatus::BadRequest`] at the server's one boundary, before
//!   admission.
//!
//! The numerical engine is abstracted behind [`EvalEngine`], so this
//! module stays free of kernel/expansion dependencies and unit tests can
//! drive the full server with a closed-form engine.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dashmm_obs::json::{obj, Value};
use dashmm_obs::{LatencySummary, TelemetryHub};

use dashmm_obs::codec::{read_body, write_body, BodyCursor};

use crate::wire::{encode_frame, Frame, FrameDecoder, FrameKind, WireError};

/// Upper bound on targets in one request; a declared count beyond it is
/// rejected as hostile before any allocation, mirroring the frame
/// decoder's body cap.
pub const MAX_REQUEST_TARGETS: usize = 1 << 16;

/// Fixed bytes of a request body ahead of its packed coordinates.
pub const REQUEST_HEADER_BYTES: usize = 16;

/// Fixed bytes of a response body ahead of its packed potentials:
/// `req_id u64 | status u8 | queue f32 | fuse f32 | compute f32 |
/// reply f32 | total f32 | count u32`.
pub const RESPONSE_HEADER_BYTES: usize = 33;

/// Byte cap on one stats-snapshot JSON body; a declared length beyond it
/// is rejected as hostile before any allocation.
pub const STATS_MAX_SNAPSHOT_BYTES: usize = 1 << 20;

/// Fixed bytes of a stats-response body ahead of the snapshot JSON.
pub const STATS_RESPONSE_HEADER_BYTES: usize = 12;

/// Upper bound on displacement *and* charge updates in one
/// [`FrameKind::StepSources`] request; a declared count beyond it is
/// rejected as hostile before any allocation.
pub const MAX_STEP_UPDATES: usize = 1 << 15;

/// Fixed bytes of a step-request body ahead of its packed updates.
pub const STEP_HEADER_BYTES: usize = 20;

/// Body cap for service connections: the largest legal request frame
/// (step and response frames are smaller: `20 + 40·2¹⁵ < 16 + 24·2¹⁶`).
const SERVICE_MAX_BODY: usize = REQUEST_HEADER_BYTES + 24 * MAX_REQUEST_TARGETS;

// ---------------------------------------------------------------------------
// Request/response body codec
// ---------------------------------------------------------------------------

/// One decoded evaluation request.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRequestMsg {
    /// Client-chosen request id, echoed in the response.
    pub req_id: u64,
    /// Tenant the request is accounted against.
    pub tenant: u32,
    /// Target positions to evaluate the cached expansions at.
    pub targets: Vec<[f64; 3]>,
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RespStatus {
    /// Potentials follow, one per requested target.
    Ok = 0,
    /// Admission control shed the request (tenant or global queue bound);
    /// the client should back off and retry.
    Shed = 1,
    /// The request body was malformed.
    BadRequest = 2,
    /// The server is draining for shutdown.
    ShuttingDown = 3,
}

impl RespStatus {
    fn from_u8(v: u8) -> Option<RespStatus> {
        Some(match v {
            0 => RespStatus::Ok,
            1 => RespStatus::Shed,
            2 => RespStatus::BadRequest,
            3 => RespStatus::ShuttingDown,
            _ => return None,
        })
    }
}

/// Per-request phase timing (µs), echoed in every evaluation response.
///
/// The phases telescope — `queue + fuse + compute + reply == total` —
/// because each boundary is a single server-side timestamp (admission,
/// tile drain, engine start, engine end, response write).  `f32`
/// microseconds keep the wire cost at 20 bytes while resolving
/// sub-microsecond detail out to ~4.6 hours.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Admission → the request's tile being drained from the aggregator.
    pub queue_us: f32,
    /// Tile drain → engine start (SoA fusion, output-buffer setup).
    pub fuse_us: f32,
    /// Engine evaluation of the fused tile (shared across its requests).
    pub compute_us: f32,
    /// Engine end → the response bytes reaching the socket.
    pub reply_us: f32,
    /// Admission → the response bytes reaching the socket.
    pub total_us: f32,
}

impl PhaseBreakdown {
    /// Sum of the four component phases (should match `total_us` up to
    /// `f32` rounding — the server computes all five from shared
    /// timestamps).
    pub fn sum_us(&self) -> f64 {
        self.queue_us as f64 + self.fuse_us as f64 + self.compute_us as f64 + self.reply_us as f64
    }
}

/// One decoded evaluation response.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalResponseMsg {
    /// Echo of the request id.
    pub req_id: u64,
    /// Outcome.
    pub status: RespStatus,
    /// Server-side phase breakdown (zeros on non-[`RespStatus::Ok`]
    /// outcomes, which never reach the engine).
    pub phases: PhaseBreakdown,
    /// Potentials in request target order (empty unless
    /// [`RespStatus::Ok`]).
    pub potentials: Vec<f64>,
}

/// Encode an [`FrameKind::EvalRequest`] body:
/// `req_id u64 | tenant u32 | count u32 | (x, y, z) f64 × count`.
pub fn encode_request(req_id: u64, tenant: u32, targets: &[[f64; 3]]) -> Vec<u8> {
    assert!(
        targets.len() <= MAX_REQUEST_TARGETS,
        "request over the target limit"
    );
    write_body(REQUEST_HEADER_BYTES + 24 * targets.len(), |w| {
        w.u64(req_id).u32(tenant).u32(targets.len() as u32);
        for t in targets {
            w.f64(t[0]).f64(t[1]).f64(t[2]);
        }
    })
}

/// Decode an [`FrameKind::EvalRequest`] body.  Never panics: a declared
/// count over [`MAX_REQUEST_TARGETS`] is [`WireError::Oversize`] *before*
/// any allocation, and a length that disagrees with the count is
/// [`WireError::Truncated`] / [`WireError::BadParcel`].
pub fn decode_request(body: &[u8]) -> Result<EvalRequestMsg, WireError> {
    read_body(body, |c| {
        let (req_id, tenant, count) = (c.u64()?, c.u32()?, c.u32()? as usize);
        let targets = c.records(count, MAX_REQUEST_TARGETS, 24, |t| {
            Ok([t.f64()?, t.f64()?, t.f64()?])
        })?;
        Ok(EvalRequestMsg {
            req_id,
            tenant,
            targets,
        })
    })
}

/// Encode an [`FrameKind::EvalResponse`] body: `req_id u64 | status u8 |
/// queue f32 | fuse f32 | compute f32 | reply f32 | total f32 |
/// count u32 | potential f64 × count`.
pub fn encode_response(
    req_id: u64,
    status: RespStatus,
    phases: &PhaseBreakdown,
    potentials: &[f64],
) -> Vec<u8> {
    debug_assert!(status == RespStatus::Ok || potentials.is_empty());
    write_body(RESPONSE_HEADER_BYTES + 8 * potentials.len(), |w| {
        w.u64(req_id).u8(status as u8);
        let p = phases;
        for us in [p.queue_us, p.fuse_us, p.compute_us, p.reply_us, p.total_us] {
            w.f32(us);
        }
        w.u32(potentials.len() as u32).f64s(potentials);
    })
}

/// Decode an [`FrameKind::EvalResponse`] body (same hardening rules as
/// [`decode_request`]; an unknown status byte is [`WireError::BadParcel`]).
pub fn decode_response(body: &[u8]) -> Result<EvalResponseMsg, WireError> {
    read_body(body, |c| {
        let (req_id, status) = (c.u64()?, c.u8()?);
        let phases = PhaseBreakdown {
            queue_us: c.f32()?,
            fuse_us: c.f32()?,
            compute_us: c.f32()?,
            reply_us: c.f32()?,
            total_us: c.f32()?,
        };
        let count = c.u32()? as usize;
        let status = RespStatus::from_u8(status).ok_or(WireError::BadParcel)?;
        let potentials = c.records(count, MAX_REQUEST_TARGETS, 8, BodyCursor::f64)?;
        Ok(EvalResponseMsg {
            req_id,
            status,
            phases,
            potentials,
        })
    })
}

/// Encode a [`FrameKind::StatsRequest`] body: `req_id u64`.
pub fn encode_stats_request(req_id: u64) -> Vec<u8> {
    write_body(8, |w| {
        w.u64(req_id);
    })
}

/// Decode a [`FrameKind::StatsRequest`] body (exactly eight bytes).
pub fn decode_stats_request(body: &[u8]) -> Result<u64, WireError> {
    Ok(read_body(body, BodyCursor::u64)?)
}

/// Encode a [`FrameKind::StatsResponse`] body: `req_id u64 | len u32 |
/// snapshot JSON (UTF-8) × len`.
pub fn encode_stats_response(req_id: u64, snapshot_json: &str) -> Vec<u8> {
    assert!(
        snapshot_json.len() <= STATS_MAX_SNAPSHOT_BYTES,
        "stats snapshot over the byte cap"
    );
    write_body(STATS_RESPONSE_HEADER_BYTES + snapshot_json.len(), |w| {
        w.u64(req_id)
            .u32(snapshot_json.len() as u32)
            .bytes(snapshot_json.as_bytes());
    })
}

/// Decode a [`FrameKind::StatsResponse`] body.  A declared length over
/// [`STATS_MAX_SNAPSHOT_BYTES`] is [`WireError::Oversize`] *before* any
/// allocation; non-UTF-8 payload is [`WireError::BadParcel`].
pub fn decode_stats_response(body: &[u8]) -> Result<(u64, String), WireError> {
    read_body(body, |c| {
        let (req_id, len) = (c.u64()?, c.u32()? as usize);
        let json = c.counted(len, STATS_MAX_SNAPSHOT_BYTES, 1)?.rest();
        let json = std::str::from_utf8(json).map_err(|_| WireError::BadParcel)?;
        Ok((req_id, json.to_string()))
    })
}

/// One decoded source-update (time-step) request.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRequestMsg {
    /// Client-chosen request id, echoed in the response.
    pub req_id: u64,
    /// Tenant the request is accounted against.
    pub tenant: u32,
    /// Per-source displacements `(source index, delta)`.
    pub moves: Vec<(u32, [f64; 3])>,
    /// Per-source charge replacements `(source index, new charge)`.
    pub charges: Vec<(u32, f64)>,
}

/// Encode a [`FrameKind::StepSources`] body: `req_id u64 | tenant u32 |
/// n_moves u32 | n_charges u32 | (idx u32, dx, dy, dz f64) × n_moves |
/// (idx u32, q f64) × n_charges`.
pub fn encode_step_request(
    req_id: u64,
    tenant: u32,
    moves: &[(u32, [f64; 3])],
    charges: &[(u32, f64)],
) -> Vec<u8> {
    assert!(
        moves.len() <= MAX_STEP_UPDATES && charges.len() <= MAX_STEP_UPDATES,
        "step request over the update limit"
    );
    let cap = STEP_HEADER_BYTES + 28 * moves.len() + 12 * charges.len();
    write_body(cap, |w| {
        w.u64(req_id).u32(tenant);
        w.u32(moves.len() as u32).u32(charges.len() as u32);
        for &(idx, d) in moves {
            w.u32(idx).f64(d[0]).f64(d[1]).f64(d[2]);
        }
        for &(idx, q) in charges {
            w.u32(idx).f64(q);
        }
    })
}

/// Decode a [`FrameKind::StepSources`] body (same hardening rules as
/// [`decode_request`]: hostile counts are [`WireError::Oversize`] before
/// any allocation, length disagreements are [`WireError::Truncated`] /
/// [`WireError::BadParcel`]).
pub fn decode_step_request(body: &[u8]) -> Result<StepRequestMsg, WireError> {
    read_body(body, |c| {
        let (req_id, tenant) = (c.u64()?, c.u32()?);
        let (n_moves, n_charges) = (c.u32()? as usize, c.u32()? as usize);
        let moves = c.records(n_moves, MAX_STEP_UPDATES, 28, |m| {
            Ok((m.u32()?, [m.f64()?, m.f64()?, m.f64()?]))
        })?;
        let charges = c.records(n_charges, MAX_STEP_UPDATES, 12, |q| {
            Ok((q.u32()?, q.f64()?))
        })?;
        Ok(StepRequestMsg {
            req_id,
            tenant,
            moves,
            charges,
        })
    })
}

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

/// The numerical back end the server fans fused tiles into: evaluate the
/// cached source expansions at arbitrary target positions.
///
/// The contract the aggregator relies on: each output element depends only
/// on its own target position (per-target rows over a shared source
/// gather), so splitting or fusing batches differently must not change any
/// individual result.  `dashmm-core`'s `ResidentFmm` satisfies this.
pub trait EvalEngine: Send + Sync + 'static {
    /// Write the potential at each of `targets` into `out`
    /// (`out.len() == targets.len()`, overwritten).
    fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]);

    /// Evaluate one fused tile *and* report the engine-internal phase
    /// breakdown for telemetry.  The default delegates to
    /// [`EvalEngine::evaluate`] with an empty breakdown; engines that
    /// can attribute their time (far-field M2T vs near-field P2P, as
    /// `dashmm-core`'s `ResidentFmm` does) override it so the server's
    /// stats snapshot can show where tile time goes.
    fn evaluate_traced(&self, targets: &[[f64; 3]], out: &mut [f64]) -> EngineBreakdown {
        self.evaluate(targets, out);
        EngineBreakdown::default()
    }
}

/// Engine-internal timing of one fused-tile evaluation, for the
/// server's telemetry plane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineBreakdown {
    /// Time in batched far-field (M2T) evaluation.
    pub m2t_us: f64,
    /// Time in batched near-field (P2P) evaluation.
    pub p2p_us: f64,
    /// Target–box interactions routed through the far-field path.
    pub far_pairs: u64,
    /// Target–source interactions routed through the near-field path.
    pub near_pairs: u64,
}

impl<F> EvalEngine for F
where
    F: Fn(&[[f64; 3]], &mut [f64]) + Send + Sync + 'static,
{
    fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
        self(targets, out)
    }
}

/// An engine whose resident source state can be *stepped in place*
/// between evaluations: apply per-source displacements and charge
/// replacements, refit the cached tree/expansions incrementally, and keep
/// serving queries.  `dashmm-core`'s `ResidentFmm::step` (behind a lock)
/// satisfies this.
///
/// The engine must serialize `step` against concurrent `evaluate` calls
/// itself; the server invokes `step` from the connection's reader thread
/// while evaluation workers may be mid-tile.  Queries admitted before the
/// step may therefore be answered from either the pre- or post-step
/// state — tenants wanting a strict cut must quiesce their own queries
/// around the step, as the timestep bench does.
pub trait StepEngine: EvalEngine {
    /// Apply the update; `false` rejects it (e.g. an index out of range),
    /// answered to the client as [`RespStatus::BadRequest`].
    fn step(&self, moves: &[(u32, [f64; 3])], charges: &[(u32, f64)]) -> bool;

    /// Apply the update *and* report its expansion reuse for telemetry.
    /// The default wraps [`StepEngine::step`] with wall-clock timing and
    /// zero counts; engines that know what they recomputed
    /// (`ResidentFmm::step`) override it so the stats snapshot's
    /// step-engine reuse ratio is populated.
    fn step_traced(&self, moves: &[(u32, [f64; 3])], charges: &[(u32, f64)]) -> StepOutcome {
        let t0 = Instant::now();
        let applied = self.step(moves, charges);
        StepOutcome {
            applied,
            reused_expansions: 0,
            recomputed_expansions: 0,
            total_us: t0.elapsed().as_secs_f64() * 1e6,
        }
    }
}

/// Telemetry detail of one applied (or rejected) source-update step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepOutcome {
    /// Whether the update was applied.
    pub applied: bool,
    /// Expansions reused bitwise from the previous step.
    pub reused_expansions: u64,
    /// Expansions the step recomputed.
    pub recomputed_expansions: u64,
    /// Wall time of the step.
    pub total_us: f64,
}

// ---------------------------------------------------------------------------
// Request aggregation
// ---------------------------------------------------------------------------

/// One admitted request waiting for a tile slot.
#[derive(Debug)]
struct PendingRequest {
    conn: u64,
    req_id: u64,
    tenant: u32,
    targets: Vec<[f64; 3]>,
    admitted: Instant,
}

/// One request's slice of a fused tile.
#[derive(Debug)]
pub struct Segment {
    /// Connection the response goes back to.
    pub conn: u64,
    /// Request id to echo.
    pub req_id: u64,
    /// Tenant for accounting release.
    pub tenant: u32,
    /// Offset of this request's targets in the tile.
    pub offset: usize,
    /// Number of targets.
    pub len: usize,
    /// When admission accepted the request.
    pub admitted: Instant,
}

/// A fused SoA tile: the concatenated targets of one or more requests plus
/// the segments mapping results back to them.
#[derive(Debug)]
pub struct Tile {
    /// Concatenated target positions.
    pub targets: Vec<[f64; 3]>,
    /// Per-request slices of `targets`.
    pub segments: Vec<Segment>,
}

/// Exact-accounting tallies of the aggregator (all in targets):
/// `enqueued == drained + purged + queued` at every instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggregatorAccounting {
    /// Targets ever admitted into the queue.
    pub enqueued: u64,
    /// Targets handed to the engine in fused tiles.
    pub drained: u64,
    /// Targets dropped because their connection died while queued.
    pub purged: u64,
    /// Targets currently waiting.
    pub queued: u64,
}

impl AggregatorAccounting {
    /// Whether the tallies reconcile.
    pub fn balanced(&self) -> bool {
        self.enqueued == self.drained + self.purged + self.queued
    }
}

/// FIFO of admitted requests with fused-tile draining and exact drain
/// accounting (the service-side sibling of the runtime's `EdgeBatcher`:
/// deposits are registered, drains are counted, nothing strands).
#[derive(Debug, Default)]
pub struct RequestAggregator {
    queue: VecDeque<PendingRequest>,
    acct: AggregatorAccounting,
}

impl RequestAggregator {
    /// Empty aggregator.
    pub fn new() -> Self {
        RequestAggregator::default()
    }

    fn push(&mut self, req: PendingRequest) {
        self.acct.enqueued += req.targets.len() as u64;
        self.acct.queued += req.targets.len() as u64;
        self.queue.push_back(req);
    }

    /// Enqueue one admitted request (the public face of `push`, for
    /// driving the aggregator outside the server's eval loop).
    pub fn enqueue(&mut self, conn: u64, req_id: u64, tenant: u32, targets: Vec<[f64; 3]>) {
        self.push(PendingRequest {
            conn,
            req_id,
            tenant,
            targets,
            admitted: Instant::now(),
        });
    }

    /// Coalesce queued requests into one fused tile of at most
    /// `max_targets` targets (whole requests only; a single request larger
    /// than the budget ships as its own tile).  `None` when idle.
    pub fn drain_tile(&mut self, max_targets: usize) -> Option<Tile> {
        let mut targets = Vec::new();
        let mut segments = Vec::new();
        while let Some(front) = self.queue.front() {
            let n = front.targets.len();
            if !targets.is_empty() && targets.len() + n > max_targets {
                break;
            }
            let req = self.queue.pop_front().expect("front exists");
            segments.push(Segment {
                conn: req.conn,
                req_id: req.req_id,
                tenant: req.tenant,
                offset: targets.len(),
                len: n,
                admitted: req.admitted,
            });
            targets.extend_from_slice(&req.targets);
            self.acct.queued -= n as u64;
            self.acct.drained += n as u64;
            if targets.len() >= max_targets {
                break;
            }
        }
        if segments.is_empty() {
            None
        } else {
            Some(Tile { targets, segments })
        }
    }

    /// Drop every queued request belonging to `conn` (its socket died),
    /// returning `(tenant, targets)` per dropped request so admission can
    /// release the bounds.
    pub fn purge_conn(&mut self, conn: u64) -> Vec<(u32, usize)> {
        let mut dropped = Vec::new();
        self.queue.retain(|req| {
            if req.conn == conn {
                dropped.push((req.tenant, req.targets.len()));
                false
            } else {
                true
            }
        });
        for &(_, n) in &dropped {
            self.acct.queued -= n as u64;
            self.acct.purged += n as u64;
        }
        dropped
    }

    /// Requests currently queued.
    pub fn queued_requests(&self) -> usize {
        self.queue.len()
    }

    /// The accounting snapshot.
    pub fn accounting(&self) -> AggregatorAccounting {
        self.acct
    }

    /// Drop all queued state and zero the tallies (only meaningful between
    /// runs; in-flight tiles must have drained).
    pub fn reset(&mut self) {
        self.queue.clear();
        self.acct = AggregatorAccounting::default();
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Backpressure bounds for admission control.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Most targets one tenant may have queued (further requests shed).
    pub max_tenant_targets: usize,
    /// Most targets queued across all tenants.
    pub max_total_targets: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_tenant_targets: 16_384,
            max_total_targets: 131_072,
        }
    }
}

/// Per-tenant counters (a [`ServiceStats`] row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Tenant id.
    pub tenant: u32,
    /// Targets currently queued.
    pub queued_targets: usize,
    /// Requests admitted.
    pub admitted_requests: u64,
    /// Targets admitted.
    pub admitted_targets: u64,
    /// Requests shed by admission control.
    pub shed_requests: u64,
    /// Requests answered with potentials.
    pub completed_requests: u64,
    /// Requests whose connection died before the answer.
    pub dropped_requests: u64,
}

#[derive(Debug, Default)]
struct TenantState {
    queued: usize,
    admitted_requests: u64,
    admitted_targets: u64,
    shed_requests: u64,
    completed_requests: u64,
    dropped_requests: u64,
}

/// Why admission released targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Release {
    /// Evaluated and answered.
    Completed,
    /// Connection died before the answer.
    Dropped,
}

/// Per-tenant bounded admission with shed-on-overload.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    total_queued: usize,
    tenants: HashMap<u32, TenantState>,
}

impl Admission {
    /// Admission under `cfg`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            total_queued: 0,
            tenants: HashMap::new(),
        }
    }

    /// Admit `n` targets for `tenant`, or record a shed and refuse.
    pub fn try_admit(&mut self, tenant: u32, n: usize) -> bool {
        let st = self.tenants.entry(tenant).or_default();
        if st.queued + n > self.cfg.max_tenant_targets
            || self.total_queued + n > self.cfg.max_total_targets
        {
            st.shed_requests += 1;
            return false;
        }
        st.queued += n;
        st.admitted_requests += 1;
        st.admitted_targets += n as u64;
        self.total_queued += n;
        true
    }

    fn release(&mut self, tenant: u32, n: usize, how: Release) {
        let st = self
            .tenants
            .get_mut(&tenant)
            .expect("release for unknown tenant");
        assert!(st.queued >= n, "released more targets than admitted");
        st.queued -= n;
        self.total_queued -= n;
        match how {
            Release::Completed => st.completed_requests += 1,
            Release::Dropped => st.dropped_requests += 1,
        }
    }

    /// Release `n` answered targets for `tenant` (engine evaluated them
    /// and the response was written).
    pub fn release_completed(&mut self, tenant: u32, n: usize) {
        self.release(tenant, n, Release::Completed);
    }

    /// Release `n` targets for `tenant` whose connection died before the
    /// answer (a purge mid-queue).
    pub fn release_dropped(&mut self, tenant: u32, n: usize) {
        self.release(tenant, n, Release::Dropped);
    }

    /// Targets currently admitted but unanswered, across tenants.
    pub fn total_queued(&self) -> usize {
        self.total_queued
    }

    /// Counter rows, sorted by tenant id.
    pub fn snapshot(&self) -> Vec<TenantCounters> {
        let mut rows: Vec<TenantCounters> = self
            .tenants
            .iter()
            .map(|(&tenant, st)| TenantCounters {
                tenant,
                queued_targets: st.queued,
                admitted_requests: st.admitted_requests,
                admitted_targets: st.admitted_targets,
                shed_requests: st.shed_requests,
                completed_requests: st.completed_requests,
                dropped_requests: st.dropped_requests,
            })
            .collect();
        rows.sort_by_key(|r| r.tenant);
        rows
    }

    /// Forget every tenant and zero the bounds.
    pub fn reset(&mut self) {
        self.total_queued = 0;
        self.tenants.clear();
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Fused-tile budget: queued requests are coalesced into engine calls
    /// of at most this many targets.
    pub tile_targets: usize,
    /// Admission bounds.
    pub admission: AdmissionConfig,
    /// Evaluation worker threads draining the aggregator.
    pub eval_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tile_targets: 1024,
            admission: AdmissionConfig::default(),
            eval_workers: 1,
        }
    }
}

/// Aggregate service counters (the non-per-tenant half of
/// [`ServiceStats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceTotals {
    /// Requests admitted.
    pub admitted_requests: u64,
    /// Requests shed.
    pub shed_requests: u64,
    /// Requests answered Ok.
    pub completed_requests: u64,
    /// Targets evaluated.
    pub evaluated_targets: u64,
    /// Fused tiles run through the engine.
    pub tiles: u64,
    /// Requests per tile, accumulated (for the mean).
    pub tile_requests: u64,
    /// Malformed request bodies answered `BadRequest`.
    pub bad_requests: u64,
    /// Source-update ([`FrameKind::StepSources`]) requests applied.
    pub step_requests: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections torn down on decode errors.
    pub protocol_errors: u64,
}

/// A point-in-time snapshot of everything the server counts.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Aggregate counters.
    pub totals: ServiceTotals,
    /// Per-tenant rows.
    pub tenants: Vec<TenantCounters>,
    /// End-to-end request latency (admission → response written).
    pub latency: LatencySummary,
    /// Aggregator accounting.
    pub accounting: AggregatorAccounting,
}

impl ServiceStats {
    /// Mean requests fused per engine tile.
    pub fn mean_tile_requests(&self) -> f64 {
        if self.totals.tiles == 0 {
            0.0
        } else {
            self.totals.tile_requests as f64 / self.totals.tiles as f64
        }
    }
}

/// Everything the worker/reader threads share under one lock, so the
/// admit → aggregate → drain → release chain is atomic.
struct Core {
    agg: RequestAggregator,
    adm: Admission,
    totals: ServiceTotals,
    /// Shutdown requested (admin frame or [`EvalServer::shutdown`]).
    draining: bool,
}

struct ConnHandle {
    stream: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl ConnHandle {
    /// Write a whole frame; `true` iff the bytes reached the socket.  On
    /// failure the connection is marked dead (the reader will notice the
    /// closed socket and purge).  The return value — not a re-read of
    /// `alive` — decides delivery accounting: a client may receive its
    /// answer and close the connection before the worker looks again.
    fn send(&self, kind: FrameKind, body: &[u8]) -> bool {
        if !self.alive.load(Ordering::Acquire) {
            return false;
        }
        let frame = encode_frame(kind, 0, body);
        let mut stream = self.stream.lock().expect("conn stream lock");
        if stream.write_all(&frame).is_err() {
            self.alive.store(false, Ordering::Release);
            let _ = stream.shutdown(SockShutdown::Both);
            return false;
        }
        true
    }
}

/// Cumulative counters remembered at the previous stats poll, so the
/// next snapshot can report interval-windowed deltas (rates follow from
/// `delta / interval`).
#[derive(Clone, Copy, Debug, Default)]
struct PrevPoll {
    uptime_us: f64,
    totals: ServiceTotals,
}

struct Shared {
    cfg: ServiceConfig,
    engine: Arc<dyn EvalEngine>,
    /// Present iff the server was bound with [`EvalServer::bind_stepping`];
    /// a [`FrameKind::StepSources`] frame without it is a `BadRequest`.
    stepper: Option<Arc<dyn StepEngine>>,
    /// Lock-free telemetry plane (histograms, engine/step counters);
    /// lives outside the core lock so recording never contends with it.
    hub: TelemetryHub,
    /// Baseline for the snapshot's interval-windowed deltas (advanced by
    /// every poll, from any client).
    prev_poll: Mutex<Option<PrevPoll>>,
    core: Mutex<Core>,
    work_cv: Condvar,
    /// Signals [`EvalServer::wait`]ers that draining finished.
    done_cv: Condvar,
    conns: Mutex<HashMap<u64, Arc<ConnHandle>>>,
    accepting: AtomicBool,
    next_conn: AtomicU64,
}

impl Shared {
    /// Answer `req_id` on `conn` with a bare status (no potentials).
    fn send_status(&self, conn: &ConnHandle, req_id: u64, status: RespStatus) {
        conn.send(
            FrameKind::EvalResponse,
            &encode_response(req_id, status, &PhaseBreakdown::default(), &[]),
        );
    }

    /// Count a request refused whole in `bad_requests` and answer it
    /// [`RespStatus::BadRequest`], echoing its id when the body's first
    /// eight bytes (every request's `req_id`) arrived.
    fn refuse(&self, conn: &ConnHandle, body: &[u8]) {
        self.core.lock().expect("core lock").totals.bad_requests += 1;
        let req_id = BodyCursor::new(body).u64().unwrap_or(0);
        self.send_status(conn, req_id, RespStatus::BadRequest);
    }

    /// Build the live stats snapshot (schema `dashmm-stats-v2`): totals,
    /// per-tenant counters, queue depths, per-phase latency histograms,
    /// engine/step sections, uptime, and deltas since the previous poll.
    fn stats_snapshot_json(&self) -> String {
        let uptime_us = self.hub.uptime_us();
        self.hub.stats_polls.inc();
        let (totals, tenants, acct, queued_requests) = {
            let core = self.core.lock().expect("core lock");
            (
                core.totals,
                core.adm.snapshot(),
                core.agg.accounting(),
                core.agg.queued_requests(),
            )
        };
        let prev = {
            let mut slot = self.prev_poll.lock().expect("prev poll lock");
            slot.replace(PrevPoll { uptime_us, totals })
                .unwrap_or_default()
        };
        let tenant_rows: Vec<Value> = tenants
            .iter()
            .map(|t| {
                obj(vec![
                    ("tenant", Value::from(u64::from(t.tenant))),
                    (
                        "received_requests",
                        Value::from(t.admitted_requests + t.shed_requests),
                    ),
                    ("admitted_requests", Value::from(t.admitted_requests)),
                    ("admitted_targets", Value::from(t.admitted_targets)),
                    ("shed_requests", Value::from(t.shed_requests)),
                    ("completed_requests", Value::from(t.completed_requests)),
                    ("errored_requests", Value::from(t.dropped_requests)),
                    ("queued_targets", Value::from(t.queued_targets)),
                ])
            })
            .collect();
        let d = |now: u64, then: u64| Value::from(now.saturating_sub(then));
        let snapshot = obj(vec![
            ("schema", Value::from("dashmm-stats-v2")),
            ("seq", Value::from(self.hub.stats_polls.get())),
            ("uptime_us", Value::from(uptime_us)),
            (
                "totals",
                obj(vec![
                    ("admitted_requests", Value::from(totals.admitted_requests)),
                    ("shed_requests", Value::from(totals.shed_requests)),
                    ("completed_requests", Value::from(totals.completed_requests)),
                    ("evaluated_targets", Value::from(totals.evaluated_targets)),
                    ("tiles", Value::from(totals.tiles)),
                    ("tile_requests", Value::from(totals.tile_requests)),
                    ("bad_requests", Value::from(totals.bad_requests)),
                    ("step_requests", Value::from(totals.step_requests)),
                    ("connections", Value::from(totals.connections)),
                    ("protocol_errors", Value::from(totals.protocol_errors)),
                ]),
            ),
            ("tenants", Value::Arr(tenant_rows)),
            (
                "queues",
                obj(vec![
                    ("queued_requests", Value::from(queued_requests)),
                    ("queued_targets", Value::from(acct.queued)),
                    ("enqueued_targets", Value::from(acct.enqueued)),
                    ("drained_targets", Value::from(acct.drained)),
                    ("purged_targets", Value::from(acct.purged)),
                    ("balanced", Value::Bool(acct.balanced())),
                ]),
            ),
            ("latency", self.hub.phases.to_json()),
            ("engine", self.hub.engine_json()),
            ("step", self.hub.step_json()),
            (
                "window",
                obj(vec![
                    (
                        "interval_us",
                        Value::from((uptime_us - prev.uptime_us).max(0.0)),
                    ),
                    (
                        "admitted_requests",
                        d(totals.admitted_requests, prev.totals.admitted_requests),
                    ),
                    (
                        "shed_requests",
                        d(totals.shed_requests, prev.totals.shed_requests),
                    ),
                    (
                        "completed_requests",
                        d(totals.completed_requests, prev.totals.completed_requests),
                    ),
                    (
                        "evaluated_targets",
                        d(totals.evaluated_targets, prev.totals.evaluated_targets),
                    ),
                    ("tiles", d(totals.tiles, prev.totals.tiles)),
                    (
                        "step_requests",
                        d(totals.step_requests, prev.totals.step_requests),
                    ),
                    (
                        "bad_requests",
                        d(totals.bad_requests, prev.totals.bad_requests),
                    ),
                ]),
            ),
        ]);
        snapshot.to_json()
    }
}

/// The resident evaluation server.  Owns a TCP listener, one reader
/// thread per connection, and [`ServiceConfig::eval_workers`] evaluation
/// threads draining the aggregator.
pub struct EvalServer {
    shared: Arc<Shared>,
    port: u16,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl EvalServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `engine`.
    pub fn bind(
        addr: &str,
        engine: Arc<dyn EvalEngine>,
        cfg: ServiceConfig,
    ) -> std::io::Result<EvalServer> {
        EvalServer::bind_inner(addr, engine, None, cfg)
    }

    /// Bind a *stepping* server: the engine additionally accepts
    /// [`FrameKind::StepSources`] source updates between evaluations.
    pub fn bind_stepping(
        addr: &str,
        engine: Arc<dyn StepEngine>,
        cfg: ServiceConfig,
    ) -> std::io::Result<EvalServer> {
        let eval: Arc<dyn EvalEngine> = engine.clone();
        EvalServer::bind_inner(addr, eval, Some(engine), cfg)
    }

    fn bind_inner(
        addr: &str,
        engine: Arc<dyn EvalEngine>,
        stepper: Option<Arc<dyn StepEngine>>,
        cfg: ServiceConfig,
    ) -> std::io::Result<EvalServer> {
        assert!(cfg.tile_targets > 0, "tile budget must be positive");
        assert!(cfg.eval_workers > 0, "need at least one eval worker");
        let listener = TcpListener::bind(addr)?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            cfg,
            engine,
            stepper,
            hub: TelemetryHub::new(),
            prev_poll: Mutex::new(None),
            core: Mutex::new(Core {
                agg: RequestAggregator::new(),
                adm: Admission::new(cfg.admission),
                totals: ServiceTotals::default(),
                draining: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            accepting: AtomicBool::new(true),
            next_conn: AtomicU64::new(1),
        });
        let readers = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || accept_loop(listener, shared, readers))
                .expect("spawn accept thread")
        };
        let workers = (0..cfg.eval_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-eval-{i}"))
                    .spawn(move || eval_loop(shared))
                    .expect("spawn eval worker")
            })
            .collect();
        Ok(EvalServer {
            shared,
            port,
            accept_thread: Some(accept_thread),
            workers,
            readers,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Snapshot the counters, per-tenant rows and latency percentiles
    /// (read off the streaming end-to-end histogram, which sees every
    /// request ever served).
    pub fn stats(&self) -> ServiceStats {
        let latency = LatencySummary::from_snapshot(&self.shared.hub.phases.total.snapshot());
        let core = self.shared.core.lock().expect("core lock");
        ServiceStats {
            totals: core.totals,
            tenants: core.adm.snapshot(),
            latency,
            accounting: core.agg.accounting(),
        }
    }

    /// The stats snapshot JSON a [`FrameKind::StatsRequest`] would
    /// receive, for in-process consumers (bench summaries).  Note this
    /// advances the windowed-delta baseline exactly like a wire poll.
    pub fn stats_json(&self) -> String {
        self.shared.stats_snapshot_json()
    }

    /// Block until a client's [`FrameKind::Shutdown`] frame (or a local
    /// [`EvalServer::shutdown`]) has drained the queue.
    pub fn wait(&self) {
        let mut core = self.shared.core.lock().expect("core lock");
        while !(core.draining && core.agg.accounting().queued == 0) {
            core = self.shared.done_cv.wait(core).expect("done wait");
        }
    }

    /// Stop accepting, drain, close every connection, and join all
    /// threads.  Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut core = self.shared.core.lock().expect("core lock");
            core.draining = true;
            self.shared.work_cv.notify_all();
            self.shared.done_cv.notify_all();
        }
        // Unblock the accept loop with a dummy connection.
        self.shared.accepting.store(false, Ordering::Release);
        let _ = TcpStream::connect(SocketAddr::from(([127, 0, 0, 1], self.port)));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Close live connections so their readers see EOF.
        for conn in self.shared.conns.lock().expect("conn map").values() {
            conn.alive.store(false, Ordering::Release);
            let _ = conn
                .stream
                .lock()
                .expect("conn stream lock")
                .shutdown(SockShutdown::Both);
        }
        let handles: Vec<_> = self
            .readers
            .lock()
            .expect("reader list")
            .drain(..)
            .collect();
        for t in handles {
            let _ = t.join();
        }
    }

    /// Clear aggregator, admission and counters so the resident tree can
    /// serve a fresh run.  Callable after [`EvalServer::shutdown`] (the
    /// regression path: a client that vanished mid-batch must leave
    /// nothing behind) — panics if targets are still queued, which would
    /// mean the purge accounting leaked.
    pub fn reset(&mut self) {
        let mut core = self.shared.core.lock().expect("core lock");
        let acct = core.agg.accounting();
        assert!(
            acct.balanced(),
            "aggregator accounting leaked: {acct:?} does not reconcile"
        );
        assert_eq!(
            core.adm.total_queued(),
            acct.queued as usize,
            "admission and aggregator disagree about queued targets"
        );
        core.agg.reset();
        core.adm.reset();
        core.totals = ServiceTotals::default();
        drop(core);
        *self.shared.prev_poll.lock().expect("prev poll lock") = None;
    }
}

impl Drop for EvalServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if !shared.accepting.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(ConnHandle {
            stream: Mutex::new(stream.try_clone().expect("clone service stream")),
            alive: AtomicBool::new(true),
        });
        shared
            .conns
            .lock()
            .expect("conn map")
            .insert(conn_id, Arc::clone(&handle));
        {
            let mut core = shared.core.lock().expect("core lock");
            core.totals.connections += 1;
        }
        let shared2 = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name(format!("svc-conn-{conn_id}"))
            .spawn(move || reader_loop(stream, conn_id, handle, shared2))
            .expect("spawn reader");
        readers.lock().expect("reader list").push(reader);
    }
}

fn reader_loop(mut stream: TcpStream, conn_id: u64, handle: Arc<ConnHandle>, shared: Arc<Shared>) {
    let mut dec = FrameDecoder::with_max_body(SERVICE_MAX_BODY);
    let mut buf = [0u8; 64 * 1024];
    'io: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        dec.push(&buf[..n]);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_frame(frame, conn_id, &handle, &shared) {
                        break 'io;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Garbage (bad magic, oversize declaration, corrupt
                    // body): never panic, never trust the stream again.
                    let mut core = shared.core.lock().expect("core lock");
                    core.totals.protocol_errors += 1;
                    break 'io;
                }
            }
        }
    }
    // Tear down: whatever this connection still has queued is purged and
    // its admission released, so a client dying mid-batch cannot wedge
    // the bounded queues (the regression the reset() path guards).
    handle.alive.store(false, Ordering::Release);
    let _ = stream.shutdown(SockShutdown::Both);
    {
        let mut core = shared.core.lock().expect("core lock");
        for (tenant, n) in core.agg.purge_conn(conn_id) {
            core.adm.release(tenant, n, Release::Dropped);
        }
        shared.done_cv.notify_all();
    }
    shared.conns.lock().expect("conn map").remove(&conn_id);
}

/// Write one stats-snapshot frame to a connection.
fn conn_send_stats(handle: &ConnHandle, req_id: u64, json: &str) {
    handle.send(
        FrameKind::StatsResponse,
        &encode_stats_response(req_id, json),
    );
}

/// Whether every value can be computed with: no NaN, no ±∞.
fn all_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> bool {
    values.into_iter().all(|x| x.is_finite())
}

/// Handle one decoded frame; `false` ends the connection.  This is the
/// service's one input boundary: a body that does not decode, or decodes
/// to values that cannot be computed, is refused whole here
/// ([`Shared::refuse`]) and never reaches admission or the engine.
fn handle_frame(frame: Frame, conn_id: u64, handle: &ConnHandle, shared: &Shared) -> bool {
    match frame.kind {
        FrameKind::EvalRequest => {
            let req = match decode_request(&frame.body) {
                Ok(req) if all_finite(req.targets.iter().flatten()) => req,
                _ => {
                    shared.refuse(handle, &frame.body);
                    return true;
                }
            };
            let verdict = {
                let mut core = shared.core.lock().expect("core lock");
                if core.draining {
                    Some(RespStatus::ShuttingDown)
                } else if req.targets.is_empty() {
                    // Zero-target requests complete immediately.
                    core.totals.admitted_requests += 1;
                    core.totals.completed_requests += 1;
                    Some(RespStatus::Ok)
                } else if core.adm.try_admit(req.tenant, req.targets.len()) {
                    core.totals.admitted_requests += 1;
                    core.agg.push(PendingRequest {
                        conn: conn_id,
                        req_id: req.req_id,
                        tenant: req.tenant,
                        targets: req.targets,
                        admitted: Instant::now(),
                    });
                    shared.work_cv.notify_one();
                    None
                } else {
                    core.totals.shed_requests += 1;
                    Some(RespStatus::Shed)
                }
            };
            if let Some(status) = verdict {
                shared.send_status(handle, req.req_id, status);
            }
            true
        }
        FrameKind::StepSources => {
            let req = decode_step_request(&frame.body).ok().filter(|r| {
                let deltas = r.moves.iter().flat_map(|(_, d)| d);
                all_finite(deltas.chain(r.charges.iter().map(|(_, q)| q)))
            });
            // A server that cannot mutate its sources says so rather than
            // silently ignoring the update.
            let (Some(req), Some(stepper)) = (req, shared.stepper.as_ref()) else {
                shared.refuse(handle, &frame.body);
                return true;
            };
            let draining = shared.core.lock().expect("core lock").draining;
            if draining {
                shared.send_status(handle, req.req_id, RespStatus::ShuttingDown);
                return true;
            }
            // The engine serializes against in-flight tiles itself (see
            // [`StepEngine`]); holding the core lock here would stall every
            // reader behind the refit.
            let outcome = stepper.step_traced(&req.moves, &req.charges);
            if !outcome.applied {
                shared.refuse(handle, &frame.body);
                return true;
            }
            shared.core.lock().expect("core lock").totals.step_requests += 1;
            shared.hub.record_step(
                outcome.reused_expansions,
                outcome.recomputed_expansions,
                outcome.total_us,
            );
            shared.send_status(handle, req.req_id, RespStatus::Ok);
            true
        }
        FrameKind::StatsRequest => {
            match decode_stats_request(&frame.body) {
                Ok(req_id) => {
                    let json = shared.stats_snapshot_json();
                    conn_send_stats(handle, req_id, &json);
                }
                Err(_) => shared.refuse(handle, &frame.body),
            }
            true
        }
        FrameKind::Shutdown => {
            let mut core = shared.core.lock().expect("core lock");
            core.draining = true;
            shared.work_cv.notify_all();
            shared.done_cv.notify_all();
            true
        }
        FrameKind::Bye => false,
        // Any other (valid) frame kind is not part of the service
        // protocol; drop the connection rather than guess.
        _ => {
            let mut core = shared.core.lock().expect("core lock");
            core.totals.protocol_errors += 1;
            false
        }
    }
}

fn eval_loop(shared: Arc<Shared>) {
    let mut out: Vec<f64> = Vec::new();
    loop {
        // Phase boundaries are single timestamps shared by every request
        // in the tile, so each request's queue/fuse/compute/reply phases
        // telescope to its end-to-end latency exactly:
        //   queue   = t_drain - admitted      (waiting in the aggregator)
        //   fuse    = t_engine - t_drain      (SoA fusion + buffer setup)
        //   compute = t_done - t_engine       (engine tile evaluation)
        //   reply   = sent - t_done           (routing + frame write)
        //   total   = sent - admitted
        let (tile, t_drain) = {
            let mut core = shared.core.lock().expect("core lock");
            loop {
                let t_drain = Instant::now();
                if let Some(tile) = core.agg.drain_tile(shared.cfg.tile_targets) {
                    break (Some(tile), t_drain);
                }
                if core.draining {
                    shared.done_cv.notify_all();
                    break (None, t_drain);
                }
                core = shared.work_cv.wait(core).expect("work wait");
            }
        };
        let Some(tile) = tile else { return };
        out.clear();
        out.resize(tile.targets.len(), 0.0);
        let t_engine = Instant::now();
        let engine_brk = shared.engine.evaluate_traced(&tile.targets, &mut out);
        let t_done = Instant::now();
        let fuse_us = (t_engine - t_drain).as_secs_f64() * 1e6;
        let compute_us = (t_done - t_engine).as_secs_f64() * 1e6;
        shared.hub.record_engine(
            engine_brk.m2t_us,
            engine_brk.p2p_us,
            engine_brk.far_pairs,
            engine_brk.near_pairs,
        );

        // Route each request's slice back to its connection, release its
        // admission, and record its phases.
        let conns = {
            let map = shared.conns.lock().expect("conn map");
            tile.segments
                .iter()
                .map(|s| map.get(&s.conn).cloned())
                .collect::<Vec<_>>()
        };
        let mut core = shared.core.lock().expect("core lock");
        core.totals.tiles += 1;
        core.totals.tile_requests += tile.segments.len() as u64;
        core.totals.evaluated_targets += tile.targets.len() as u64;
        for (seg, conn) in tile.segments.iter().zip(&conns) {
            let queue_us = (t_drain - seg.admitted).as_secs_f64() * 1e6;
            let sent = Instant::now();
            let reply_us = (sent - t_done).as_secs_f64() * 1e6;
            let total_us = (sent - seg.admitted).as_secs_f64() * 1e6;
            let phases = PhaseBreakdown {
                queue_us: queue_us as f32,
                fuse_us: fuse_us as f32,
                compute_us: compute_us as f32,
                reply_us: reply_us as f32,
                total_us: total_us as f32,
            };
            let delivered = match conn {
                // Responses must be released in admission order per
                // tenant, and the frame write is a memcpy into the kernel
                // buffer, so writing under the core lock is acceptable.
                Some(conn) => conn.send(
                    FrameKind::EvalResponse,
                    &encode_response(
                        seg.req_id,
                        RespStatus::Ok,
                        &phases,
                        &out[seg.offset..seg.offset + seg.len],
                    ),
                ),
                None => false,
            };
            core.adm.release(
                seg.tenant,
                seg.len,
                if delivered {
                    Release::Completed
                } else {
                    Release::Dropped
                },
            );
            if delivered {
                core.totals.completed_requests += 1;
            }
            shared
                .hub
                .phases
                .record(queue_us, fuse_us, compute_us, reply_us, total_us);
        }
        shared.done_cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking service client: one TCP connection, pipelined requests,
/// frame-decoded responses.
pub struct EvalClient {
    stream: TcpStream,
    dec: FrameDecoder,
    next_req: u64,
}

impl EvalClient {
    /// Connect to a server.
    pub fn connect(addr: &str) -> std::io::Result<EvalClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(EvalClient {
            stream,
            dec: FrameDecoder::with_max_body(SERVICE_MAX_BODY),
            next_req: 1,
        })
    }

    /// Send one request without waiting; returns its request id.
    pub fn send(&mut self, tenant: u32, targets: &[[f64; 3]]) -> std::io::Result<u64> {
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = encode_frame(
            FrameKind::EvalRequest,
            0,
            &encode_request(req_id, tenant, targets),
        );
        self.stream.write_all(&frame)?;
        Ok(req_id)
    }

    /// Block until the next whole frame arrives.
    fn recv_frame(&mut self) -> std::io::Result<Frame> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {
                    let n = self.stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.dec.push(&buf[..n]);
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
        }
    }

    /// Block until the next response frame arrives.
    pub fn recv(&mut self) -> std::io::Result<EvalResponseMsg> {
        loop {
            let frame = self.recv_frame()?;
            if frame.kind == FrameKind::EvalResponse {
                return decode_response(&frame.body).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                });
            }
            // Tolerate non-response frames (e.g. stats answers another
            // caller is waiting on are not expected on this path).
        }
    }

    /// Poll the server's live stats snapshot and parse it.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        let raw = self.stats_raw()?;
        dashmm_obs::json::parse(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Poll the server's live stats snapshot, returning the raw JSON
    /// text (what `obs-validate --stats` consumes).
    pub fn stats_raw(&mut self) -> std::io::Result<String> {
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = encode_frame(FrameKind::StatsRequest, 0, &encode_stats_request(req_id));
        self.stream.write_all(&frame)?;
        loop {
            let frame = self.recv_frame()?;
            if frame.kind != FrameKind::StatsResponse {
                continue;
            }
            let (id, json) = decode_stats_response(&frame.body)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            if id == req_id {
                return Ok(json);
            }
        }
    }

    /// Send one request and wait for its response (single-shot RPC).
    pub fn eval(&mut self, tenant: u32, targets: &[[f64; 3]]) -> std::io::Result<EvalResponseMsg> {
        let req_id = self.send(tenant, targets)?;
        loop {
            let resp = self.recv()?;
            if resp.req_id == req_id {
                return Ok(resp);
            }
        }
    }

    /// Apply a source update on a stepping server and wait for the
    /// outcome ([`RespStatus::Ok`] when applied; the response carries no
    /// potentials).
    pub fn step(
        &mut self,
        tenant: u32,
        moves: &[(u32, [f64; 3])],
        charges: &[(u32, f64)],
    ) -> std::io::Result<EvalResponseMsg> {
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = encode_frame(
            FrameKind::StepSources,
            0,
            &encode_step_request(req_id, tenant, moves, charges),
        );
        self.stream.write_all(&frame)?;
        loop {
            let resp = self.recv()?;
            if resp.req_id == req_id {
                return Ok(resp);
            }
        }
    }

    /// Ask the server to drain and exit its run loop.
    pub fn send_shutdown(&mut self) -> std::io::Result<()> {
        self.stream
            .write_all(&encode_frame(FrameKind::Shutdown, 0, &[]))
    }

    /// Orderly close.
    pub fn close(mut self) -> std::io::Result<()> {
        let _ = self.stream.write_all(&encode_frame(FrameKind::Bye, 0, &[]));
        self.stream.shutdown(SockShutdown::Both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize, base: f64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|i| [base + i as f64, 2.0 * i as f64, -(i as f64)])
            .collect()
    }

    #[test]
    fn request_codec_roundtrip() {
        let targets = pts(5, 0.25);
        let body = encode_request(42, 7, &targets);
        let req = decode_request(&body).unwrap();
        assert_eq!(req.req_id, 42);
        assert_eq!(req.tenant, 7);
        assert_eq!(req.targets, targets);
    }

    #[test]
    fn request_hostile_count_rejected_before_allocation() {
        let mut body = encode_request(1, 0, &pts(2, 0.0));
        body[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(&body), Err(WireError::Oversize(_))));
    }

    #[test]
    fn request_truncated_and_trailing_rejected() {
        let body = encode_request(1, 0, &pts(3, 0.0));
        assert_eq!(
            decode_request(&body[..body.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut long = body.clone();
        long.push(0);
        assert_eq!(decode_request(&long), Err(WireError::BadParcel));
        assert_eq!(decode_request(&body[..10]), Err(WireError::Truncated));
    }

    #[test]
    fn step_request_codec_roundtrip() {
        let moves = vec![(3u32, [0.5, -1.0, 2.0]), (9, [0.0, 0.25, -0.125])];
        let charges = vec![(1u32, -1.0), (7, 3.5), (11, 0.0)];
        let body = encode_step_request(77, 4, &moves, &charges);
        assert_eq!(body.len(), STEP_HEADER_BYTES + 28 * 2 + 12 * 3);
        let req = decode_step_request(&body).unwrap();
        assert_eq!(req.req_id, 77);
        assert_eq!(req.tenant, 4);
        assert_eq!(req.moves, moves);
        assert_eq!(req.charges, charges);
        // Empty updates are legal (a no-op step).
        let empty = decode_step_request(&encode_step_request(1, 0, &[], &[])).unwrap();
        assert!(empty.moves.is_empty() && empty.charges.is_empty());
    }

    #[test]
    fn step_request_hostile_counts_rejected_before_allocation() {
        let body = encode_step_request(1, 0, &[(0, [0.0; 3])], &[(0, 1.0)]);
        let mut hostile_moves = body.clone();
        hostile_moves[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_step_request(&hostile_moves),
            Err(WireError::Oversize(_))
        ));
        let mut hostile_charges = body.clone();
        hostile_charges[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_step_request(&hostile_charges),
            Err(WireError::Oversize(_))
        ));
        assert_eq!(
            decode_step_request(&body[..body.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut long = body.clone();
        long.push(0);
        assert_eq!(decode_step_request(&long), Err(WireError::BadParcel));
        assert_eq!(decode_step_request(&body[..10]), Err(WireError::Truncated));
    }

    #[test]
    fn response_codec_roundtrip_and_bad_status() {
        let phases = PhaseBreakdown {
            queue_us: 12.5,
            fuse_us: 1.25,
            compute_us: 800.0,
            reply_us: 6.25,
            total_us: 820.0,
        };
        let body = encode_response(9, RespStatus::Ok, &phases, &[1.5, -2.5]);
        let resp = decode_response(&body).unwrap();
        assert_eq!(resp.req_id, 9);
        assert_eq!(resp.status, RespStatus::Ok);
        assert_eq!(resp.phases, phases);
        assert_eq!(resp.potentials, vec![1.5, -2.5]);
        let shed = decode_response(&encode_response(
            3,
            RespStatus::Shed,
            &PhaseBreakdown::default(),
            &[],
        ))
        .unwrap();
        assert_eq!(shed.status, RespStatus::Shed);
        assert_eq!(shed.phases, PhaseBreakdown::default());
        assert!(shed.potentials.is_empty());
        let mut bad = encode_response(1, RespStatus::Ok, &PhaseBreakdown::default(), &[]);
        bad[8] = 77;
        assert_eq!(decode_response(&bad), Err(WireError::BadParcel));
    }

    #[test]
    fn stats_codec_roundtrip_and_hostile_length() {
        assert_eq!(decode_stats_request(&encode_stats_request(11)), Ok(11));
        assert_eq!(decode_stats_request(&[0; 7]), Err(WireError::Truncated));
        assert_eq!(decode_stats_request(&[0; 9]), Err(WireError::BadParcel));

        let json = r#"{"schema":"dashmm-stats-v2"}"#;
        let body = encode_stats_response(5, json);
        assert_eq!(decode_stats_response(&body), Ok((5, json.to_string())));
        // A hostile declared length is rejected before any allocation.
        let mut hostile = body.clone();
        hostile[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_stats_response(&hostile),
            Err(WireError::Oversize(_))
        ));
        assert_eq!(
            decode_stats_response(&body[..body.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut long = body.clone();
        long.push(0);
        assert_eq!(decode_stats_response(&long), Err(WireError::BadParcel));
        // Non-UTF-8 payload is a parcel error, not a panic.
        let mut non_utf8 = encode_stats_response(1, "ab");
        non_utf8[STATS_RESPONSE_HEADER_BYTES] = 0xFF;
        assert_eq!(decode_stats_response(&non_utf8), Err(WireError::BadParcel));
    }

    #[test]
    fn aggregator_fuses_whole_requests_up_to_budget() {
        let mut agg = RequestAggregator::new();
        let now = Instant::now();
        for (i, n) in [3usize, 4, 5].iter().enumerate() {
            agg.push(PendingRequest {
                conn: 1,
                req_id: i as u64,
                tenant: 0,
                targets: pts(*n, i as f64),
                admitted: now,
            });
        }
        // Budget 8 fuses the first two requests (3+4), not the third.
        let tile = agg.drain_tile(8).unwrap();
        assert_eq!(tile.targets.len(), 7);
        assert_eq!(tile.segments.len(), 2);
        assert_eq!(tile.segments[0].offset, 0);
        assert_eq!(tile.segments[1].offset, 3);
        let tile2 = agg.drain_tile(8).unwrap();
        assert_eq!(tile2.targets.len(), 5);
        assert!(agg.drain_tile(8).is_none());
        let acct = agg.accounting();
        assert!(acct.balanced());
        assert_eq!(acct.drained, 12);
    }

    #[test]
    fn aggregator_oversize_request_ships_alone() {
        let mut agg = RequestAggregator::new();
        agg.push(PendingRequest {
            conn: 1,
            req_id: 0,
            tenant: 0,
            targets: pts(100, 0.0),
            admitted: Instant::now(),
        });
        let tile = agg.drain_tile(16).unwrap();
        assert_eq!(tile.targets.len(), 100, "over-budget request ships whole");
    }

    #[test]
    fn aggregator_purge_releases_only_that_conn() {
        let mut agg = RequestAggregator::new();
        let now = Instant::now();
        for conn in [1u64, 2, 1] {
            agg.push(PendingRequest {
                conn,
                req_id: conn,
                tenant: conn as u32,
                targets: pts(2, 0.0),
                admitted: now,
            });
        }
        let dropped = agg.purge_conn(1);
        assert_eq!(dropped, vec![(1, 2), (1, 2)]);
        let acct = agg.accounting();
        assert_eq!(acct.purged, 4);
        assert_eq!(acct.queued, 2);
        assert!(acct.balanced());
        assert_eq!(agg.drain_tile(100).unwrap().segments[0].conn, 2);
    }

    #[test]
    fn admission_sheds_over_tenant_and_global_bounds() {
        let mut adm = Admission::new(AdmissionConfig {
            max_tenant_targets: 10,
            max_total_targets: 15,
        });
        assert!(adm.try_admit(1, 8));
        assert!(!adm.try_admit(1, 3), "tenant bound sheds");
        assert!(adm.try_admit(2, 7));
        assert!(!adm.try_admit(3, 1), "global bound sheds");
        adm.release(1, 8, Release::Completed);
        assert!(adm.try_admit(3, 1), "release reopens the bound");
        let rows = adm.snapshot();
        assert_eq!(rows.len(), 3);
        let t1 = rows.iter().find(|r| r.tenant == 1).unwrap();
        assert_eq!(t1.shed_requests, 1);
        assert_eq!(t1.completed_requests, 1);
        assert_eq!(t1.queued_targets, 0);
    }

    /// Closed-form engine for server tests: φ(t) = x + 10y + 100z.
    fn plane_engine() -> Arc<dyn EvalEngine> {
        Arc::new(|targets: &[[f64; 3]], out: &mut [f64]| {
            for (t, o) in targets.iter().zip(out.iter_mut()) {
                *o = t[0] + 10.0 * t[1] + 100.0 * t[2];
            }
        })
    }

    #[test]
    fn server_round_trip_single_client() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let targets = pts(17, 0.5);
        let resp = client.eval(3, &targets).unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        assert_eq!(resp.potentials.len(), 17);
        for (t, p) in targets.iter().zip(&resp.potentials) {
            assert_eq!(*p, t[0] + 10.0 * t[1] + 100.0 * t[2]);
        }
        // The acceptance criterion: the echoed breakdown telescopes to
        // the measured end-to-end latency within 5%.
        let total = resp.phases.total_us as f64;
        assert!(total > 0.0, "total latency must be measured");
        let sum = resp.phases.sum_us();
        assert!(
            (sum - total).abs() <= 0.05 * total,
            "phase sum {sum} vs total {total} off by more than 5%"
        );
        client.close().unwrap();
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.totals.completed_requests, 1);
        assert_eq!(stats.totals.evaluated_targets, 17);
        assert!(stats.accounting.balanced());
        assert_eq!(stats.latency.count, 1);
    }

    #[test]
    fn server_rejects_garbage_without_dying() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        // A raw socket spews garbage; the server must drop it and live.
        {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.write_all(&[0xFF; 256]).unwrap();
            // Server closes on us; either write error or EOF is fine.
            let mut buf = [0u8; 16];
            let _ = s.read(&mut buf);
        }
        // A well-formed client still gets service.
        let mut client = EvalClient::connect(&addr).unwrap();
        let resp = client.eval(0, &pts(2, 1.0)).unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        client.close().unwrap();
        server.shutdown();
        assert!(server.stats().totals.protocol_errors >= 1);
    }

    #[test]
    fn shed_response_when_admission_full() {
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                max_tenant_targets: 4,
                max_total_targets: 4,
            },
            ..ServiceConfig::default()
        };
        // An engine slow enough that the queue stays occupied while the
        // second request arrives.
        let engine: Arc<dyn EvalEngine> = Arc::new(|targets: &[[f64; 3]], out: &mut [f64]| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            for (t, o) in targets.iter().zip(out.iter_mut()) {
                *o = t[0];
            }
        });
        let mut server = EvalServer::bind("127.0.0.1:0", engine, cfg).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut a = EvalClient::connect(&addr).unwrap();
        let mut b = EvalClient::connect(&addr).unwrap();
        // Fill the bound, then overflow it from the second client before
        // the first tile finishes.
        let id_a = a.send(0, &pts(4, 0.0)).unwrap();
        // Give the worker a moment to pick up the first batch so the
        // second lands while the tenant's 4 targets are still in flight.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let resp_b = b.eval(0, &pts(4, 9.0)).unwrap();
        assert_eq!(resp_b.status, RespStatus::Shed);
        let resp_a = a.recv().unwrap();
        assert_eq!(resp_a.req_id, id_a);
        assert_eq!(resp_a.status, RespStatus::Ok);
        a.close().unwrap();
        b.close().unwrap();
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.totals.shed_requests, 1);
        let row = &stats.tenants[0];
        assert_eq!(row.shed_requests, 1);
        assert_eq!(row.completed_requests, 1);
    }

    /// Steppable closed-form engine: φ(t) = x + k, where a step adds each
    /// charge update's value to k (moves must stay in-range to be
    /// accepted, mimicking the resident engine's index validation).
    struct OffsetEngine {
        k: Mutex<f64>,
        num_sources: u32,
    }

    impl EvalEngine for OffsetEngine {
        fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
            let k = *self.k.lock().unwrap();
            for (t, o) in targets.iter().zip(out.iter_mut()) {
                *o = t[0] + k;
            }
        }
    }

    impl StepEngine for OffsetEngine {
        fn step(&self, moves: &[(u32, [f64; 3])], charges: &[(u32, f64)]) -> bool {
            if moves
                .iter()
                .map(|(i, _)| i)
                .chain(charges.iter().map(|(i, _)| i))
                .any(|&i| i >= self.num_sources)
            {
                return false;
            }
            *self.k.lock().unwrap() += charges.iter().map(|(_, q)| q).sum::<f64>();
            true
        }
    }

    #[test]
    fn stepping_server_applies_updates_between_evals() {
        let engine = Arc::new(OffsetEngine {
            k: Mutex::new(0.0),
            num_sources: 100,
        });
        let mut server =
            EvalServer::bind_stepping("127.0.0.1:0", engine, ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let before = client.eval(0, &[[1.0, 0.0, 0.0]]).unwrap();
        assert_eq!(before.potentials, vec![1.0]);
        let resp = client
            .step(0, &[(5, [0.1, 0.0, 0.0])], &[(2, 2.0), (3, 0.5)])
            .unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        assert!(resp.potentials.is_empty());
        let after = client.eval(0, &[[1.0, 0.0, 0.0]]).unwrap();
        assert_eq!(after.potentials, vec![3.5], "eval sees the applied step");
        // An out-of-range source index is rejected, not applied.
        let bad = client.step(0, &[(999, [0.0; 3])], &[]).unwrap();
        assert_eq!(bad.status, RespStatus::BadRequest);
        client.close().unwrap();
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.totals.step_requests, 1);
        assert_eq!(stats.totals.bad_requests, 1);
    }

    #[test]
    fn step_on_non_stepping_server_is_bad_request() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let resp = client.step(0, &[], &[(0, 1.0)]).unwrap();
        assert_eq!(resp.status, RespStatus::BadRequest);
        // The connection survives; evaluation still works.
        let ok = client.eval(0, &pts(1, 2.0)).unwrap();
        assert_eq!(ok.status, RespStatus::Ok);
        client.close().unwrap();
        server.shutdown();
        assert_eq!(server.stats().totals.bad_requests, 1);
    }

    #[test]
    fn zero_target_request_is_ok_and_empty() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let resp = client.eval(0, &[]).unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        assert!(resp.potentials.is_empty());
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_drains_and_wait_returns() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let resp = client.eval(1, &pts(3, 0.0)).unwrap();
        assert_eq!(resp.status, RespStatus::Ok);
        client.send_shutdown().unwrap();
        server.wait();
        // Requests after the drain began are refused.
        let resp = client.eval(1, &pts(1, 0.0)).unwrap();
        assert_eq!(resp.status, RespStatus::ShuttingDown);
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn stats_endpoint_two_polls_and_window_math() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        for _ in 0..3 {
            assert_eq!(client.eval(4, &pts(5, 1.0)).unwrap().status, RespStatus::Ok);
        }
        let s1 = client.stats().unwrap();
        assert_eq!(
            s1.get("schema").and_then(Value::as_str),
            Some("dashmm-stats-v2")
        );
        let num = |v: &Value, path: [&str; 2]| {
            v.get(path[0])
                .and_then(|s| s.get(path[1]))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert_eq!(num(&s1, ["totals", "completed_requests"]), 3.0);
        // First poll: the window covers the whole uptime.
        assert_eq!(num(&s1, ["window", "completed_requests"]), 3.0);
        let total_hist_count = s1
            .get("latency")
            .and_then(|l| l.get("total"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(
            total_hist_count, 3.0,
            "total-phase histogram saw every request"
        );
        // More traffic, then a second poll: the window is the delta.
        for _ in 0..2 {
            client.eval(4, &pts(2, 0.0)).unwrap();
        }
        let s2 = client.stats().unwrap();
        assert_eq!(num(&s2, ["totals", "completed_requests"]), 5.0);
        assert_eq!(
            num(&s2, ["window", "completed_requests"]),
            num(&s2, ["totals", "completed_requests"]) - num(&s1, ["totals", "completed_requests"]),
            "window delta must equal the cumulative difference of two polls"
        );
        assert_eq!(num(&s2, ["window", "evaluated_targets"]), 4.0);
        assert!(num(&s2, ["window", "interval_us"]) >= 0.0);
        assert!(
            s2.get("uptime_us").and_then(Value::as_f64).unwrap()
                > s1.get("uptime_us").and_then(Value::as_f64).unwrap()
        );
        assert_eq!(s2.get("seq").and_then(Value::as_f64), Some(2.0));
        // Queues reconcile and tenant accounting conserves.
        assert_eq!(
            s2.get("queues")
                .and_then(|q| q.get("balanced"))
                .map(|b| b.to_json()),
            Some("true".to_string())
        );
        let tenants = s2.get("tenants").and_then(Value::as_arr).unwrap();
        let row = &tenants[0];
        assert_eq!(
            row.get("received_requests").and_then(Value::as_f64),
            Some(5.0)
        );
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn stats_json_has_tenant_rows() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        client.eval(5, &pts(2, 0.0)).unwrap();
        client.eval(9, &pts(3, 0.0)).unwrap();
        client.close().unwrap();
        server.shutdown();
        let v = dashmm_obs::json::parse(&server.stats_json()).unwrap();
        let tenants = v.get("tenants").and_then(Value::as_arr).unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            v.get("totals")
                .and_then(|t| t.get("completed_requests"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(v.get("latency").is_some());
        for gone in ["trace", "comm"] {
            assert!(v.get(gone).is_none(), "{gone} section is gone");
        }
    }

    #[test]
    fn non_finite_targets_are_refused_and_the_connection_lives() {
        let mut server =
            EvalServer::bind("127.0.0.1:0", plane_engine(), ServiceConfig::default()).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let mut client = EvalClient::connect(&addr).unwrap();
        let targets = pts(4, 0.5);
        let before = client.eval(0, &targets).unwrap();
        assert_eq!(before.status, RespStatus::Ok);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (what, bad) in [
            ("a NaN target", [f64::NAN, 0.0, 0.0]),
            ("an infinite target", [0.0, f64::NEG_INFINITY, 0.0]),
        ] {
            let mut poisoned = targets.clone();
            poisoned[2] = bad;
            let resp = client.eval(0, &poisoned).unwrap();
            assert_eq!(resp.status, RespStatus::BadRequest, "{what}");
            assert!(resp.potentials.is_empty(), "{what}");
            let after = client.eval(0, &targets).unwrap();
            assert_eq!(after.status, RespStatus::Ok, "{what}");
            assert_eq!(bits(&after.potentials), bits(&before.potentials), "{what}");
        }
        client.close().unwrap();
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.totals.bad_requests, 2);
        assert_eq!(
            stats.totals.admitted_requests, 3,
            "refused requests are never admitted"
        );
        assert_eq!(stats.totals.completed_requests, 3);
        assert!(stats.accounting.balanced());
    }
}
