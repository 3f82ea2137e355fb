//! The socket transport: one locality per OS process, one progress thread
//! per locality.
//!
//! Outbound parcels pass through the per-destination [`Coalescer`] into
//! bounded per-peer write queues; a worker that outruns the network blocks
//! on [`CoalesceConfig::max_queue_bytes`] (backpressure) instead of growing
//! the queue without bound.  The progress thread owns all socket I/O: it
//! drains reads through a streaming [`FrameDecoder`] into the scheduler
//! (delivery pushes onto the destination locality's injector), retires
//! write queues, ages out coalescing buffers, and runs distributed
//! termination detection.
//!
//! ## Reliability
//!
//! Parcel frames travel as [`FrameKind::SeqParcels`] under the ARQ layer in
//! [`crate::reliable`]: per-destination sequence numbers, cumulative acks
//! piggybacked on reverse-path parcel frames (or shipped standalone by the
//! progress thread), a retransmit queue with timeout + capped exponential
//! backoff + jitter, and exactly-once in-order delivery at the receiver.
//! TCP already provides this for a healthy socket — the layer exists so
//! the deterministic [`FaultPlan`] injector can drop / duplicate / corrupt
//! / delay / reorder parcel frames (modelling a lossy interconnect) and
//! the run still completes with the right answer.  Injection is gated on
//! one `Option` check, so a fault-free run pays nothing.
//!
//! ## Failure detection
//!
//! Every locality heartbeats its peers; a peer silent past the suspicion
//! timeout (`DASHMM_SUSPICION_MS`, default 1000) or hanging up mid-run is
//! marked **down** and surfaced through [`Transport::failed_peer`] instead
//! of hanging the run: the runtime aborts cleanly with a partial summary,
//! and blocked collectives (barrier/gather) fail fast.  An injected
//! `kill` exits the victim abruptly (no goodbye, no flush) with code 113;
//! an injected `stall` freezes the victim's progress thread — survivors
//! must ride it out through retransmission.  Both are timed from the
//! moment the first evaluation installs its progress ledger
//! ([`Transport::set_ledger`]), as it starts building its LCO network, so
//! the rank's tree and DAG set-up never count toward them.
//!
//! ## Termination
//!
//! Quiescence of a distributed run is detected with a coordinator-based
//! double-confirmation protocol (in the family of Safra's algorithm).
//! Whenever a rank is locally idle (no task queued or executing — an exact
//! probe, not a cached flag) with empty outbound buffers, it reports
//! `STATUS(epoch, seq, sent, recv)` to rank 0, where `sent`/`recv` are
//! cumulative parcel counters and `seq` increments per report.  Rank 0
//! declares the epoch finished once two consecutive complete snapshots
//! agree: all ranks at the current epoch, `Σsent == Σrecv`, per-rank
//! counters unchanged between the snapshots, and every rank's `seq`
//! strictly advanced (so both snapshots postdate the counters they
//! confirm).  A parcel in flight between the snapshots would change
//! `recv` on delivery and void the match, so a `DONE` broadcast proves a
//! moment of global quiescence existed — and quiescence is stable, because
//! new work arises only from running tasks or parcel delivery.
//!
//! Under loss the counters must stay honest: a rank reports **only acked
//! parcels** as `sent` — it withholds STATUS until its coalescer, write
//! queues, injector holds and retransmit queues are all empty, at which
//! point acked == sent.  A dropped frame therefore keeps its parcels out
//! of Σsent *and* Σrecv, and the snapshots cannot spuriously balance
//! while repair is outstanding.
//!
//! ## Run epochs
//!
//! Ranks leave a run as soon as `DONE` arrives, so a fast rank may start
//! the next evaluation — and send parcels for it — while a slow rank still
//! sits in the previous one.  Parcel frames therefore carry the sender's
//! run epoch: frames from the future are staged and only delivered (and
//! counted as received) when the local `begin_run` enters that epoch,
//! keeping both the scheduler's pending counter and the termination
//! counters consistent across back-to-back runs.
//!
//! [`FrameKind::SeqParcels`]: crate::wire::FrameKind::SeqParcels

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

use dashmm_amt::{
    CoalesceConfig, ConvictionReason, FaultPlan, LedgerSnapshot, Parcel, PeerFailure,
    ProgressLedger, TraceEvent, Transport, TransportHooks, TransportStats, CLASS_PARCEL_FLUSH,
};
use parking_lot::Mutex;

use crate::coalesce::{Coalescer, Flush};
use crate::metrics::{CommMetrics, FlushReason};
use crate::reliable::{RetransmitConfig, SeqReceiver, SeqSender};
use crate::wire::{
    ack_body, decode_ack_body, decode_gather_body, decode_parcels_body, decode_seq_parcels_body,
    decode_status_body, decode_u32_body, encode_frame, gather_body, parcel_wire_len,
    seal_seq_parcels, status_body, u32_body, FrameDecoder, FrameKind, SharedFrame, WireError,
    HEADER_BYTES,
};

/// Trace class of socket-write spans (owned by `dashmm-obs`).
pub const TRACE_CLASS_TX: u8 = dashmm_amt::CLASS_NET_TX;
/// Trace class of receive-and-deliver spans.
pub const TRACE_CLASS_RX: u8 = dashmm_amt::CLASS_NET_RX;
/// Trace class of retransmission instants.
pub const TRACE_CLASS_RETRANSMIT: u8 = dashmm_amt::CLASS_NET_RETRANSMIT;
/// Trace class of standalone-ack instants.
pub const TRACE_CLASS_ACK: u8 = dashmm_amt::CLASS_NET_ACK;
/// Trace class of heartbeat instants.
pub const TRACE_CLASS_HEARTBEAT: u8 = dashmm_amt::CLASS_NET_HEARTBEAT;

/// Cap on buffered trace events (a run that never drains cannot leak).
const TRACE_CAP: usize = 1 << 20;
/// Minimum interval between STATUS reports from an idle rank.
const STATUS_INTERVAL_NS: u64 = 200_000;
/// Reads (of up to 256 KiB each) one peer gets per progress iteration.
const READS_PER_PUMP: usize = 4;
/// Sentinel for "no peer down".
const PEER_NONE: u32 = u32::MAX;
/// Default suspicion timeout (override with `DASHMM_SUSPICION_MS`).
const DEFAULT_SUSPICION_MS: u64 = 1_000;
/// Process exit code of an injected locality kill.
pub const KILL_EXIT_CODE: i32 = 113;

fn fatal(msg: &str) -> ! {
    eprintln!("dashmm-net fatal: {msg}");
    std::process::exit(86);
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RankStatus {
    epoch: u32,
    seq: u64,
    sent: u64,
    recv: u64,
}

/// Rank-0 coordinator state.
#[derive(Default)]
struct Coord {
    status: Vec<RankStatus>,
    candidate: Option<Vec<RankStatus>>,
    done_sent_epoch: u32,
    barrier_arrived: Vec<u32>,
    barrier_released: u32,
    gather_parts: HashMap<u32, Vec<Option<Vec<u8>>>>,
}

/// Client-side synchronisation state (barrier releases, finished gathers).
#[derive(Default)]
struct SyncState {
    barrier_release_gen: u32,
    gather_ready: HashMap<u32, Vec<Vec<u8>>>,
}

struct Peer {
    stream: TcpStream,
    decoder: FrameDecoder,
    closed: bool,
    /// The peer hung up without a goodbye while no epoch was open (e.g. a
    /// crash during workload build, before `run()` raised the epoch).  The
    /// suspicion sweep promotes a dirty close to peer-down the moment an
    /// epoch opens, so the death cannot be swallowed as a clean shutdown.
    dirty: bool,
    /// Last time any bytes arrived from this peer (liveness evidence).
    last_rx: Instant,
}

/// Per-link ARQ state (see [`crate::reliable`]).
struct ArqState {
    senders: Vec<SeqSender>,
    receivers: Vec<SeqReceiver>,
    /// Highest cumulative ack shipped to each peer (piggyback or
    /// standalone); an advance past this schedules a standalone ack.
    acked_sent: Vec<u64>,
    /// Force a standalone ack even without an advance (a duplicate
    /// arrived, so a previous ack was evidently lost).
    ack_due: Vec<bool>,
}

struct Outbound {
    coalescer: Coalescer,
    /// Per-destination frames awaiting socket writes (`is_parcels` marks
    /// frames that count toward parcel-emptiness).
    queues: Vec<VecDeque<(SharedFrame, bool)>>,
    /// Write offset into the front frame of each queue.
    offsets: Vec<usize>,
    /// Unwritten bytes across all queues (the backpressure quantity).
    queued_bytes: usize,
    /// Queued frames that carry parcels.
    parcel_frames: usize,
    /// Injector holds: frames delayed in flight, `(release_ns, dest,
    /// frame)`.
    delayed: Vec<(u64, u32, SharedFrame)>,
    /// Injector holds: one-slot reorder pockets per destination (a
    /// pocketed frame ships after its successor).
    pocket: Vec<Option<SharedFrame>>,
    /// Idle/aged coalescer flushes deferred on per-destination queue
    /// pressure (satellite: an unwritable socket must not grow the queue).
    deferred: VecDeque<Flush>,
}

impl Outbound {
    /// Forget every frame queued toward `dest` (it is gone), written part
    /// of the head frame included.
    fn drop_queue(&mut self, dest: usize) {
        let queued: usize = self.queues[dest].iter().map(|(f, _)| f.len()).sum();
        self.queued_bytes -= queued - self.offsets[dest];
        self.parcel_frames -= self.queues[dest].iter().filter(|(_, p)| *p).count();
        self.queues[dest].clear();
        self.offsets[dest] = 0;
    }
}

struct Shared {
    rank: u32,
    ranks: u32,
    cfg: CoalesceConfig,
    faults: Option<FaultPlan>,
    rcfg: RetransmitConfig,
    suspicion: Duration,
    peers: Vec<Option<Mutex<Peer>>>,
    out: StdMutex<Outbound>,
    out_cv: Condvar,
    arq: Mutex<ArqState>,
    hooks: OnceLock<TransportHooks>,
    epoch: AtomicU32,
    done_epoch: AtomicU32,
    peer_down: AtomicU32,
    /// Recovery mode ([`Transport::set_recover`]): a convicted peer is
    /// fenced instead of aborting the run.
    recover: AtomicBool,
    /// A convicted peer has been fenced: termination detection and
    /// collectives run over the survivor set.
    fenced: AtomicBool,
    /// Test hook: this rank has been abruptly severed from the mesh (as if
    /// the process died) — the progress thread shuts sockets and exits.
    severed: AtomicBool,
    /// Full conviction record behind [`Transport::failed_peer_info`].
    failure: Mutex<Option<PeerFailure>>,
    /// Per-source delivered-parcel counters; when fenced, the dead rank's
    /// contribution is subtracted from the Safra `recv` count.
    recv_from: Vec<AtomicU64>,
    /// Progress ledger to update with ack watermarks and gossip on the
    /// heartbeat path, once the executor installs it.
    ledger: Mutex<Option<Arc<ProgressLedger>>>,
    /// When the first ledger was installed — the first evaluation building
    /// its LCO network: the clock of the fault plan's `kill` and `stall`,
    /// so a rank's set-up never counts toward them.
    armed: OnceLock<Instant>,
    sent: AtomicU64,
    recv: AtomicU64,
    stat_bytes_sent: AtomicU64,
    stat_frames_sent: AtomicU64,
    stat_bytes_recv: AtomicU64,
    metrics: Mutex<CommMetrics>,
    trace: Mutex<Vec<TraceEvent>>,
    /// Early parcels for future epochs: `(epoch, source rank, parcels)`.
    staged: Mutex<Vec<(u32, u32, Vec<Parcel>)>>,
    coord: Mutex<Coord>,
    sync: StdMutex<SyncState>,
    sync_cv: Condvar,
    barrier_gen: AtomicU32,
    gather_gen: AtomicU32,
    stop: AtomicBool,
    timeout: Duration,
}

/// The multi-process transport (see module docs).
pub struct SocketTransport {
    shared: Arc<Shared>,
    progress: Mutex<Option<std::thread::JoinHandle<()>>>,
}

fn env_ms(name: &str, default_ms: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_ms)
}

impl SocketTransport {
    /// Build a transport for `rank` of `ranks` over an established full
    /// mesh (`peers[r]` connected to rank `r`, own slot `None`).  Reads
    /// the fault plan from [`dashmm_amt::ENV_FAULTS`] and the suspicion
    /// timeout from `DASHMM_SUSPICION_MS`.
    pub fn new(
        rank: u32,
        ranks: u32,
        peers: Vec<Option<TcpStream>>,
        cfg: CoalesceConfig,
        timeout: Duration,
    ) -> Self {
        let faults = FaultPlan::from_env().filter(|p| p.active());
        let rcfg = RetransmitConfig::default();
        let suspicion = Duration::from_millis(env_ms("DASHMM_SUSPICION_MS", DEFAULT_SUSPICION_MS));
        Self::with_options(rank, ranks, peers, cfg, timeout, faults, rcfg, suspicion)
    }

    /// [`SocketTransport::new`] with every fault-tolerance knob explicit
    /// (tests and the chaos harness).
    #[allow(clippy::too_many_arguments)]
    pub fn with_options(
        rank: u32,
        ranks: u32,
        peers: Vec<Option<TcpStream>>,
        cfg: CoalesceConfig,
        timeout: Duration,
        faults: Option<FaultPlan>,
        rcfg: RetransmitConfig,
        suspicion: Duration,
    ) -> Self {
        assert_eq!(peers.len(), ranks as usize);
        assert!(rank < ranks && peers[rank as usize].is_none());
        let corrupting = faults.is_some_and(|p| p.corrupt > 0.0);
        let peers: Vec<Option<Mutex<Peer>>> = peers
            .into_iter()
            .map(|s| {
                s.map(|stream| {
                    stream.set_nonblocking(true).expect("set_nonblocking");
                    stream.set_nodelay(true).ok();
                    let mut decoder = FrameDecoder::new();
                    decoder.set_skip_corrupt(corrupting);
                    Mutex::new(Peer {
                        stream,
                        decoder,
                        closed: false,
                        dirty: false,
                        last_rx: Instant::now(),
                    })
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            rank,
            ranks,
            cfg,
            faults,
            rcfg,
            suspicion,
            peers,
            out: StdMutex::new(Outbound {
                coalescer: Coalescer::new(ranks, rank, cfg),
                queues: (0..ranks).map(|_| VecDeque::new()).collect(),
                offsets: vec![0; ranks as usize],
                queued_bytes: 0,
                parcel_frames: 0,
                delayed: Vec::new(),
                pocket: (0..ranks).map(|_| None).collect(),
                deferred: VecDeque::new(),
            }),
            out_cv: Condvar::new(),
            arq: Mutex::new(ArqState {
                senders: (0..ranks).map(|_| SeqSender::new()).collect(),
                receivers: (0..ranks).map(|_| SeqReceiver::new()).collect(),
                acked_sent: vec![0; ranks as usize],
                ack_due: vec![false; ranks as usize],
            }),
            hooks: OnceLock::new(),
            epoch: AtomicU32::new(0),
            done_epoch: AtomicU32::new(0),
            peer_down: AtomicU32::new(PEER_NONE),
            recover: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            severed: AtomicBool::new(false),
            failure: Mutex::new(None),
            recv_from: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            ledger: Mutex::new(None),
            armed: OnceLock::new(),
            sent: AtomicU64::new(0),
            recv: AtomicU64::new(0),
            stat_bytes_sent: AtomicU64::new(0),
            stat_frames_sent: AtomicU64::new(0),
            stat_bytes_recv: AtomicU64::new(0),
            metrics: Mutex::new(CommMetrics::new(ranks as usize)),
            trace: Mutex::new(Vec::new()),
            staged: Mutex::new(Vec::new()),
            coord: Mutex::new(Coord {
                status: vec![RankStatus::default(); ranks as usize],
                barrier_arrived: vec![0; ranks as usize],
                ..Coord::default()
            }),
            sync: StdMutex::new(SyncState::default()),
            sync_cv: Condvar::new(),
            barrier_gen: AtomicU32::new(0),
            gather_gen: AtomicU32::new(0),
            stop: AtomicBool::new(false),
            timeout,
        });
        SocketTransport {
            shared,
            progress: Mutex::new(None),
        }
    }

    /// This rank's coalescing configuration.
    pub fn coalesce_config(&self) -> CoalesceConfig {
        self.shared.cfg
    }

    /// The fault plan in force, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.shared.faults
    }

    /// Test hook modelling a process death: abruptly sever this rank from
    /// the mesh.  The progress thread shuts every peer socket down without
    /// a goodbye and exits, sends become no-ops, and `poll_quiescence`
    /// reports true so a runtime blocked on this rank returns.  Peers
    /// observe the hangup exactly as they would a crash.
    pub fn sever(&self) {
        self.shared.severed.store(true, Ordering::SeqCst);
        self.shared.out_cv.notify_all();
        self.shared.sync_cv.notify_all();
    }

    /// Snapshot of the communication metrics (decoder-side counters are
    /// folded in at snapshot time).
    pub fn metrics(&self) -> CommMetrics {
        let mut m = self.shared.metrics.lock().clone();
        m.corrupt_frames_rx = 0;
        m.oversize_rejected = 0;
        for p in self.shared.peers.iter().flatten() {
            let p = p.lock();
            m.corrupt_frames_rx += p.decoder.corrupt_skipped();
            m.oversize_rejected += p.decoder.oversize_rejected();
        }
        let arq = self.shared.arq.lock();
        m.retransmit_frames = arq.senders.iter().map(|t| t.retransmits()).sum();
        m.dup_frames_rx = arq.receivers.iter().map(|r| r.duplicates()).sum();
        m.retransmit_queue_peak = arq
            .senders
            .iter()
            .map(|t| t.peak_unacked_bytes() as u64)
            .max()
            .unwrap_or(0);
        drop(arq);
        m.failure = *self.shared.failure.lock();
        m
    }

    fn check_peer_down(&self, what: &str) -> std::io::Result<()> {
        let down = self.shared.peer_down.load(Ordering::SeqCst);
        // A fenced peer is an accounted-for death: collectives proceed
        // over the survivor set instead of failing fast.
        if down != PEER_NONE && !self.shared.fenced.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                format!("{what} aborted: rank {down} is down"),
            ));
        }
        Ok(())
    }

    /// Block until `ready` yields under the sync lock; fails fast once a
    /// peer is declared down, and at the collective timeout.
    fn wait_sync<T>(
        &self,
        what: &str,
        gen: u32,
        mut ready: impl FnMut(&mut SyncState) -> Option<T>,
    ) -> std::io::Result<T> {
        let s = &self.shared;
        let deadline = Instant::now() + s.timeout;
        let mut sync = s.sync.lock().unwrap();
        loop {
            if let Some(done) = ready(&mut sync) {
                return Ok(done);
            }
            self.check_peer_down(what)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("{what} generation {gen} timed out"),
                ));
            }
            let wait = left.min(Duration::from_millis(20));
            sync = s.sync_cv.wait_timeout(sync, wait).unwrap().0;
        }
    }

    /// Block until every rank reached this barrier (generation-numbered;
    /// call it the same number of times on every rank).  Fails fast if a
    /// peer has been declared down.
    pub fn barrier(&self) -> std::io::Result<()> {
        let s = &self.shared;
        let gen = s.barrier_gen.fetch_add(1, Ordering::SeqCst) + 1;
        if s.rank == 0 {
            let mut c = s.coord.lock();
            c.barrier_arrived[0] = gen;
        } else {
            enqueue_control(s, 0, FrameKind::Barrier, &u32_body(gen));
        }
        self.wait_sync("barrier", gen, |sync| {
            (sync.barrier_release_gen >= gen).then_some(())
        })
    }

    /// Gather one byte blob per rank at rank 0.  Returns `Some(parts)`
    /// (indexed by rank) on rank 0, `None` elsewhere.  Call it the same
    /// number of times on every rank.  Fails fast if a peer is down.
    pub fn gather(&self, part: &[u8]) -> std::io::Result<Option<Vec<Vec<u8>>>> {
        let s = &self.shared;
        let gen = s.gather_gen.fetch_add(1, Ordering::SeqCst) + 1;
        if s.rank != 0 {
            enqueue_control(s, 0, FrameKind::Gather, &gather_body(gen, part));
            return Ok(None);
        }
        {
            let mut c = s.coord.lock();
            let ranks = s.ranks as usize;
            c.gather_parts
                .entry(gen)
                .or_insert_with(|| vec![None; ranks])[0] = Some(part.to_vec());
        }
        check_gather_complete(s, gen);
        self.wait_sync("gather", gen, |sync| sync.gather_ready.remove(&gen))
            .map(Some)
    }

    /// Drain outbound buffers, say goodbye to the peers and stop the
    /// progress thread.  Idempotent.  Call after a final
    /// [`barrier`](SocketTransport::barrier) so no peer still expects parcels.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.progress.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Transport for SocketTransport {
    fn num_ranks(&self) -> u32 {
        self.shared.ranks
    }

    fn rank(&self) -> u32 {
        self.shared.rank
    }

    fn is_local(&self, locality: u32) -> bool {
        locality == self.shared.rank
    }

    fn attach(&self, hooks: TransportHooks) {
        if self.shared.hooks.set(hooks).is_err() {
            fatal("transport attached twice");
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("dashmm-net-r{}", self.shared.rank))
            .spawn(move || progress_loop(&shared))
            .expect("spawn progress thread");
        *self.progress.lock() = Some(handle);
    }

    fn begin_run(&self) {
        let s = &self.shared;
        let epoch = s.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut out = s.out.lock().unwrap();
            out.coalescer.set_epoch(epoch);
        }
        // Release parcels that raced ahead of this run.  Staged traffic
        // from a fenced (dead) rank is discarded: recovery re-derives its
        // work at the DAG level, and delivering it would double-apply.
        let dead = fenced_dead(s);
        let due: Vec<(u32, u32, Vec<Parcel>)> = {
            let mut staged = s.staged.lock();
            if dead != PEER_NONE {
                staged.retain(|(_, src, _)| *src != dead);
            }
            let (due, keep) = std::mem::take(&mut *staged)
                .into_iter()
                .partition(|(e, _, _)| *e <= epoch);
            *staged = keep;
            due
        };
        for (_, src, parcels) in due {
            deliver_parcels(s, src, parcels);
        }
    }

    fn send(&self, parcel: Parcel) {
        let s = &self.shared;
        let hooks = s.hooks.get().unwrap_or_else(|| fatal("send before attach"));
        let dest = parcel.target.locality;
        debug_assert!(dest != s.rank && dest < s.ranks);
        if s.severed.load(Ordering::Relaxed) {
            // This rank is "dead": nothing leaves it any more.
            return;
        }
        if s.peer_down.load(Ordering::Relaxed) == dest {
            // The destination is convicted.  Without recovery the run is
            // aborting anyway; with recovery the parcel's work will be
            // recomputed at the re-owner, so queueing it would only wedge
            // outbound-drain accounting on a lane that can never ack.
            s.metrics.lock().fenced_dropped_parcels += 1;
            return;
        }
        // Bounded retransmit queue: a stalled peer that stops acking must
        // not grow the ARQ queue without limit.  Enforced only here on the
        // worker path — the progress thread owns ack processing and can
        // never block on this bound.
        let abort_pending = || {
            // An unfenced conviction is aborting the run: stop blocking.
            // A *fenced* one keeps running over the survivors, so
            // backpressure stays in force on their (live) lanes.
            s.peer_down.load(Ordering::Relaxed) != PEER_NONE && !s.fenced.load(Ordering::Relaxed)
        };
        let mut arq_stalled = false;
        while !s.stop.load(Ordering::Relaxed)
            && !s.severed.load(Ordering::Relaxed)
            && !abort_pending()
            && s.arq.lock().senders[dest as usize].unacked_bytes() > s.rcfg.max_unacked_bytes
        {
            if !arq_stalled {
                arq_stalled = true;
                s.metrics.lock().arq_backpressure_stalls += 1;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let now = (hooks.now_ns)();
        let mut out = s.out.lock().unwrap();
        let mut stalled = false;
        while out.queued_bytes > s.cfg.max_queue_bytes
            && !s.stop.load(Ordering::Relaxed)
            && !s.severed.load(Ordering::Relaxed)
            && !abort_pending()
        {
            if !stalled {
                stalled = true;
                s.metrics.lock().backpressure_stalls += 1;
            }
            let (g, _) = s
                .out_cv
                .wait_timeout(out, Duration::from_millis(1))
                .unwrap();
            out = g;
        }
        s.sent.fetch_add(1, Ordering::SeqCst);
        {
            let mut m = s.metrics.lock();
            let d = &mut m.per_dest[dest as usize];
            d.parcels += 1;
            d.bytes += parcel_wire_len(&parcel) as u64;
        }
        let flushes = out.coalescer.push(dest, &parcel, now);
        for f in flushes {
            enqueue_flush(s, &mut out, f);
        }
    }

    fn poll_quiescence(&self, locally_idle: bool) -> bool {
        let s = &self.shared;
        if s.severed.load(Ordering::SeqCst) {
            // A severed ("dead") rank reports quiescent so its runtime
            // returns instead of waiting on a mesh it no longer has.
            return true;
        }
        locally_idle && s.done_epoch.load(Ordering::SeqCst) >= s.epoch.load(Ordering::SeqCst)
    }

    fn stats(&self) -> TransportStats {
        let s = &self.shared;
        TransportStats {
            parcels_sent: s.sent.load(Ordering::SeqCst),
            bytes_sent: s.stat_bytes_sent.load(Ordering::SeqCst),
            frames_sent: s.stat_frames_sent.load(Ordering::SeqCst),
            parcels_received: s.recv.load(Ordering::SeqCst),
            bytes_received: s.stat_bytes_recv.load(Ordering::SeqCst),
        }
    }

    fn drain_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.shared.trace.lock())
    }

    fn failed_peer(&self) -> Option<u32> {
        let p = self.shared.peer_down.load(Ordering::SeqCst);
        (p != PEER_NONE).then_some(p)
    }

    fn failed_peer_info(&self) -> Option<PeerFailure> {
        let recorded = *self.shared.failure.lock();
        recorded.or_else(|| {
            self.failed_peer().map(|rank| PeerFailure {
                rank,
                epoch: self.shared.epoch.load(Ordering::SeqCst),
                reason: ConvictionReason::HeartbeatTimeout,
            })
        })
    }

    /// With recovery on, [`Transport::fence_peer`] accepts a convicted
    /// peer (other than rank 0) instead of refusing.
    fn set_recover(&self, on: bool) {
        self.shared.recover.store(on, Ordering::SeqCst);
    }

    fn fence_peer(&self, dead: u32) -> bool {
        let s = &self.shared;
        // Rank 0 is the termination coordinator: its loss is out of
        // recovery scope (documented in FAULTS.md), as is fencing without
        // recovery mode or fencing a rank that was never convicted.
        if !s.recover.load(Ordering::SeqCst)
            || dead == 0
            || dead == s.rank
            || dead >= s.ranks
            || s.peer_down.load(Ordering::SeqCst) != dead
        {
            return false;
        }
        if !s.fenced.swap(true, Ordering::SeqCst) {
            // First fence: discard every outbound artifact aimed at the
            // dead rank so survivor-side drain accounting can close.
            // Recovery replays the lost work at the DAG level; the wire
            // must simply stop waiting for a lane that can never ack.
            let (_frames, arq_parcels, _bytes) =
                s.arq.lock().senders[dead as usize].drain_unacked();
            let mut coalesced_dropped = 0u64;
            {
                let mut out = s.out.lock().unwrap();
                out.drop_queue(dead as usize);
                out.pocket[dead as usize] = None;
                out.delayed.retain(|(_, dest, _)| *dest != dead);
                out.deferred.retain(|f| {
                    if f.dest == dead {
                        coalesced_dropped += f.parcels as u64;
                        false
                    } else {
                        true
                    }
                });
                // The coalescer has no per-destination drop, so seal every
                // buffer and re-queue the live ones; the one-time flush
                // perturbs batch composition, which batched operators
                // tolerate by construction.
                let flushes = out
                    .coalescer
                    .flush_all(crate::metrics::FlushReason::Shutdown);
                for f in flushes {
                    if f.dest == dead {
                        coalesced_dropped += f.parcels as u64;
                    } else {
                        enqueue_flush(s, &mut out, f);
                    }
                }
            }
            s.staged.lock().retain(|(_, src, _)| *src != dead);
            s.metrics.lock().fenced_dropped_parcels += arq_parcels + coalesced_dropped;
            eprintln!(
                "dashmm-net: rank {}: fenced dead rank {dead} ({} outbound parcels discarded)",
                s.rank,
                arq_parcels + coalesced_dropped
            );
        }
        // A gather already in flight when the fence landed would wait on
        // the dead rank's part forever; re-evaluate with its slot voided.
        let gens: Vec<u32> = s.coord.lock().gather_parts.keys().copied().collect();
        for gen in gens {
            check_gather_complete(s, gen);
        }
        s.sync_cv.notify_all();
        s.out_cv.notify_all();
        true
    }

    fn set_ledger(&self, ledger: Arc<ProgressLedger>) {
        *self.shared.ledger.lock() = Some(ledger);
        let _ = self.shared.armed.set(Instant::now());
    }
}

/// The convicted-and-fenced rank, or [`PEER_NONE`] when no peer is fenced.
/// Termination detection and collectives exclude this rank.
fn fenced_dead(s: &Shared) -> u32 {
    if s.fenced.load(Ordering::SeqCst) {
        s.peer_down.load(Ordering::SeqCst)
    } else {
        PEER_NONE
    }
}

/// Declare `r` dead: close its lane, unblock collectives and senders.
/// The runtime observes this through [`Transport::failed_peer`] and the
/// full conviction record through [`Transport::failed_peer_info`].
fn mark_peer_down(s: &Shared, r: u32, reason: ConvictionReason, why: &str) {
    if s.peer_down
        .compare_exchange(PEER_NONE, r, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        let epoch = s.epoch.load(Ordering::SeqCst);
        *s.failure.lock() = Some(PeerFailure {
            rank: r,
            epoch,
            reason,
        });
        eprintln!(
            "dashmm-net: rank {}: peer rank {r} down: {why} [{}] (epoch {epoch}, done {})",
            s.rank,
            reason.name(),
            s.done_epoch.load(Ordering::SeqCst)
        );
    }
    if let Some(p) = &s.peers[r as usize] {
        p.lock().closed = true;
    }
    s.sync_cv.notify_all();
    s.out_cv.notify_all();
}

/// Append a ready-to-write frame to `dest`'s queue (stats + accounting).
fn enqueue_raw(s: &Shared, out: &mut Outbound, dest: u32, frame: SharedFrame, is_parcels: bool) {
    let len = frame.len();
    s.stat_frames_sent.fetch_add(1, Ordering::SeqCst);
    s.stat_bytes_sent.fetch_add(len as u64, Ordering::SeqCst);
    {
        let mut m = s.metrics.lock();
        m.max_queued_bytes = m.max_queued_bytes.max(out.queued_bytes + len);
    }
    out.queues[dest as usize].push_back((frame, is_parcels));
    out.queued_bytes += len;
    if is_parcels {
        out.parcel_frames += 1;
    }
}

/// Put one sequenced parcel frame on the wire, applying the fault plan.
/// `seq`/`attempt` key the injector's deterministic per-frame decision —
/// the same roll the simulator's network model makes, which is what the
/// sim/runtime parity check compares.
fn transmit_parcel_frame(
    s: &Shared,
    out: &mut Outbound,
    dest: u32,
    seq: u64,
    attempt: u32,
    mut frame: SharedFrame,
) {
    if let Some(plan) = &s.faults {
        let fate = plan.fate(s.rank, dest, seq, attempt);
        if fate.any() {
            let mut m = s.metrics.lock();
            for (slot, hit) in [
                fate.drop,
                fate.dup,
                fate.corrupt,
                fate.delay_us > 0,
                fate.reorder,
            ]
            .into_iter()
            .enumerate()
            {
                if hit {
                    m.injected[slot] += 1;
                }
            }
        }
        if fate.drop {
            // Never reaches the peer; the retransmit queue recovers it.
            return;
        }
        if fate.corrupt {
            // Flip a body bit but leave the header intact, so the receiver
            // can skip the frame by its length and resynchronise.  The damage
            // goes into a copy: the retransmit queue shares this allocation.
            let at = HEADER_BYTES + (seq as usize % (frame.len() - HEADER_BYTES).max(1));
            if at < frame.len() {
                Arc::make_mut(&mut frame)[at] ^= 0x55;
            }
        }
        if fate.dup {
            enqueue_raw(s, out, dest, frame.clone(), true);
        }
        if fate.delay_us > 0 {
            let now = s.hooks.get().map(|h| (h.now_ns)()).unwrap_or(0);
            out.delayed.push((now + fate.delay_us * 1_000, dest, frame));
            return;
        }
        if fate.reorder {
            // Hold this frame back behind the next one to the same peer.
            if let Some(prev) = out.pocket[dest as usize].replace(frame) {
                enqueue_raw(s, out, dest, prev, true);
            }
            return;
        }
        // Shipping a frame releases any pocketed predecessor after it —
        // the adjacent swap the reorder fault models.
        enqueue_raw(s, out, dest, frame, true);
        if let Some(held) = out.pocket[dest as usize].take() {
            enqueue_raw(s, out, dest, held, true);
        }
        return;
    }
    enqueue_raw(s, out, dest, frame, true);
}

/// Queue a sealed coalescer flush: assign its sequence number, finish it in
/// place as a [`FrameKind::SeqParcels`] frame with a piggybacked ack, and
/// transmit; write queue and retransmit queue share that one buffer.
fn enqueue_flush(s: &Shared, out: &mut Outbound, f: Flush) {
    let now = s.hooks.get().map(|h| (h.now_ns)()).unwrap_or(0);
    s.metrics
        .lock()
        .record_flush(f.dest as usize, f.parcels as u64, f.reason);
    let dest = f.dest;
    let mut frame = f.frame;
    let (seq, frame) = {
        let mut arq = s.arq.lock();
        let ack = arq.receivers[dest as usize].cum_ack();
        arq.acked_sent[dest as usize] = arq.acked_sent[dest as usize].max(ack);
        let sender = &mut arq.senders[dest as usize];
        seal_seq_parcels(&mut frame, s.rank as u16, sender.frames_sent() + 1, ack);
        let frame = Arc::new(frame);
        let seq = sender.on_send(Arc::clone(&frame), f.parcels as u64, now, &s.rcfg);
        (seq, frame)
    };
    push_trace(s, CLASS_PARCEL_FLUSH, now, now);
    transmit_parcel_frame(s, out, dest, seq, 0, frame);
}

/// Queue a control frame (bypasses the coalescer, ARQ and injector).
fn enqueue_control(s: &Shared, dest: u32, kind: FrameKind, body: &[u8]) {
    let mut out = s.out.lock().unwrap();
    enqueue_control_locked(s, &mut out, dest, kind, body);
}

fn enqueue_control_locked(s: &Shared, out: &mut Outbound, dest: u32, kind: FrameKind, body: &[u8]) {
    debug_assert_ne!(dest, s.rank);
    let frame = encode_frame(kind, s.rank as u16, body);
    out.queued_bytes += frame.len();
    out.queues[dest as usize].push_back((Arc::new(frame), false));
}

/// Deliver decoded parcels into the scheduler, counting them received
/// (globally and per source, for survivor-set termination accounting).
fn deliver_parcels(s: &Shared, src: u32, parcels: Vec<Parcel>) {
    let hooks = s
        .hooks
        .get()
        .unwrap_or_else(|| fatal("deliver before attach"));
    let n = parcels.len() as u64;
    for p in parcels {
        (hooks.deliver)(p);
    }
    s.recv.fetch_add(n, Ordering::SeqCst);
    s.recv_from[src as usize].fetch_add(n, Ordering::SeqCst);
}

fn push_trace(s: &Shared, class: u8, start_ns: u64, end_ns: u64) {
    let mut t = s.trace.lock();
    if t.len() < TRACE_CAP {
        t.push(TraceEvent::span(class, start_ns, end_ns));
    }
}

/// Move a completed gather to the client side if all parts arrived.  A
/// fenced rank's part can never arrive: its slot completes as an empty
/// blob, which callers in recovery mode filter out.
fn check_gather_complete(s: &Shared, gen: u32) {
    let dead = fenced_dead(s);
    let parts = {
        let mut c = s.coord.lock();
        if dead != PEER_NONE {
            if let Some(parts) = c.gather_parts.get_mut(&gen) {
                if parts[dead as usize].is_none() {
                    parts[dead as usize] = Some(Vec::new());
                }
            }
        }
        match c.gather_parts.get(&gen) {
            Some(parts) if parts.iter().all(|p| p.is_some()) => c
                .gather_parts
                .remove(&gen)
                .map(|ps| ps.into_iter().map(|p| p.unwrap()).collect::<Vec<_>>()),
            _ => None,
        }
    };
    if let Some(parts) = parts {
        s.sync.lock().unwrap().gather_ready.insert(gen, parts);
        s.sync_cv.notify_all();
    }
}

/// Decode one delivered parcels body: meter it, stage or deliver by epoch.
fn process_parcels_body(s: &Shared, src: u32, body: &[u8], start: u64) {
    let (epoch, parcels) = match decode_parcels_body(body) {
        Ok(x) => x,
        Err(e) => fatal(&format!(
            "rank {}: bad parcels frame from {src}: {e}",
            s.rank
        )),
    };
    {
        let mut m = s.metrics.lock();
        m.rx_parcels += parcels.len() as u64;
        m.rx_bytes += body.len() as u64;
    }
    s.stat_bytes_recv
        .fetch_add(body.len() as u64, Ordering::SeqCst);
    let cur = s.epoch.load(Ordering::SeqCst);
    if epoch > cur {
        s.staged.lock().push((epoch, src, parcels));
    } else {
        debug_assert_eq!(epoch, cur, "parcel frame from a finished epoch");
        deliver_parcels(s, src, parcels);
        if let Some(h) = s.hooks.get() {
            push_trace(s, TRACE_CLASS_RX, start, (h.now_ns)());
        }
    }
}

/// Handle one inbound frame on the progress thread.
fn handle_frame(s: &Shared, src: u32, kind: FrameKind, body: &[u8], peer_closed: &mut bool) {
    // A body that does not decode comes from a broken peer: fatal, naming
    // the rank and the frame kind, never an index panic.
    let bad = |e: WireError| -> ! {
        fatal(&format!(
            "rank {}: bad {kind:?} frame from {src}: {e}",
            s.rank
        ))
    };
    match kind {
        FrameKind::SeqParcels => {
            let start = s.hooks.get().map(|h| (h.now_ns)()).unwrap_or(0);
            let (seq, ack, inner) = decode_seq_parcels_body(body).unwrap_or_else(|e| bad(e));
            let outcome = {
                let mut arq = s.arq.lock();
                arq.senders[src as usize].on_ack(ack);
                let outcome = arq.receivers[src as usize].accept(seq, inner, &s.rcfg);
                if outcome.duplicate || outcome.overflow {
                    // Our ack (or reorder window) evidently lagged; re-ack
                    // so the sender stops retransmitting.
                    arq.ack_due[src as usize] = true;
                }
                outcome
            };
            s.metrics.lock().rx_frames += 1;
            // An in-order body is decoded where it lies in the receive
            // buffer; only held successors it released were ever copied.
            if outcome.in_order {
                process_parcels_body(s, src, inner, start);
            }
            for held in outcome.deliver {
                process_parcels_body(s, src, &held, start);
            }
        }
        FrameKind::Ack => {
            let ack = decode_ack_body(body).unwrap_or_else(|e| bad(e));
            s.arq.lock().senders[src as usize].on_ack(ack);
        }
        FrameKind::Heartbeat => {
            // Liveness is tracked on any received bytes (`Peer::last_rx`);
            // the frame itself needs no handling.
        }
        FrameKind::Ledger => {
            // Progress-ledger gossip: merge the peer's snapshot (monotone,
            // so stale or reordered gossip is harmless).  Malformed bodies
            // are dropped — gossip is best-effort by design.
            if let Some(snap) = LedgerSnapshot::decode(body) {
                if let Some(ledger) = s.ledger.lock().as_ref() {
                    ledger.merge_peer(&snap);
                }
            }
        }
        FrameKind::Status => {
            let (epoch, seq, sent, recv) = decode_status_body(body).unwrap_or_else(|e| bad(e));
            let st = RankStatus {
                epoch,
                seq,
                sent,
                recv,
            };
            let mut c = s.coord.lock();
            if st.seq >= c.status[src as usize].seq {
                c.status[src as usize] = st;
            }
        }
        FrameKind::Done => {
            let epoch = decode_u32_body(body).unwrap_or_else(|e| bad(e));
            s.done_epoch.fetch_max(epoch, Ordering::SeqCst);
        }
        FrameKind::Barrier => {
            let gen = decode_u32_body(body).unwrap_or_else(|e| bad(e));
            let mut c = s.coord.lock();
            c.barrier_arrived[src as usize] = c.barrier_arrived[src as usize].max(gen);
        }
        FrameKind::Gather => {
            let (gen, part) = decode_gather_body(body).unwrap_or_else(|e| bad(e));
            let part = part.to_vec();
            {
                let mut c = s.coord.lock();
                let ranks = s.ranks as usize;
                c.gather_parts
                    .entry(gen)
                    .or_insert_with(|| vec![None; ranks])[src as usize] = Some(part);
            }
            check_gather_complete(s, gen);
        }
        FrameKind::BarrierRelease => {
            let gen = decode_u32_body(body).unwrap_or_else(|e| bad(e));
            let mut sync = s.sync.lock().unwrap();
            sync.barrier_release_gen = sync.barrier_release_gen.max(gen);
            drop(sync);
            s.sync_cv.notify_all();
        }
        FrameKind::Bye => {
            *peer_closed = true;
        }
        // Parcels travel sequenced; this build never emits the bare kind.
        FrameKind::Hello | FrameKind::PortMap | FrameKind::Parcels => {
            fatal(&format!(
                "rank {}: unexpected {kind:?} after rendezvous",
                s.rank
            ));
        }
        FrameKind::EvalRequest
        | FrameKind::EvalResponse
        | FrameKind::Shutdown
        | FrameKind::StepSources
        | FrameKind::StatsRequest
        | FrameKind::StatsResponse => {
            // Service-protocol frames belong to `service::EvalServer`
            // endpoints, never to the rank mesh.
            fatal(&format!(
                "rank {}: service frame {kind:?} on the transport mesh",
                s.rank
            ));
        }
    }
}

/// Rank-0 only: evaluate termination and release due barriers.  When a
/// peer is fenced, both run over the survivor set: the dead rank's stale
/// STATUS is ignored, it owes no barrier arrival, and the survivors'
/// reported counters already exclude their channels to and from it — so
/// `Σsent == Σrecv` balances over live lanes only.
fn coordinate(s: &Shared) {
    let cur = s.epoch.load(Ordering::SeqCst);
    let dead = fenced_dead(s);
    let live = |r: usize| r as u32 != dead;
    let mut c = s.coord.lock();
    // Termination detection (see module docs).
    if cur > 0 && c.done_sent_epoch < cur {
        let snapshot = c.status.clone();
        if snapshot
            .iter()
            .enumerate()
            .filter(|(r, _)| live(*r))
            .all(|(_, st)| st.epoch == cur)
        {
            let live_sum = |f: fn(&RankStatus) -> u64| -> u64 {
                snapshot
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| live(*r))
                    .map(|(_, st)| f(st))
                    .sum()
            };
            let sent = live_sum(|st| st.sent);
            let recv = live_sum(|st| st.recv);
            if sent == recv {
                let confirmed = c.candidate.as_ref().is_some_and(|prev| {
                    prev.iter()
                        .zip(&snapshot)
                        .enumerate()
                        .filter(|(r, _)| live(*r))
                        .all(|(_, (a, b))| a.sent == b.sent && a.recv == b.recv && b.seq > a.seq)
                });
                if confirmed {
                    c.done_sent_epoch = cur;
                    c.candidate = None;
                    drop(c);
                    s.done_epoch.fetch_max(cur, Ordering::SeqCst);
                    for dest in 1..s.ranks {
                        if live(dest as usize) {
                            enqueue_control(s, dest, FrameKind::Done, &u32_body(cur));
                        }
                    }
                    c = s.coord.lock();
                } else {
                    c.candidate = Some(snapshot);
                }
            } else {
                c.candidate = None;
            }
        }
    }
    // Barrier release (a fenced rank owes no arrival).
    let next = c.barrier_released + 1;
    if c.barrier_arrived
        .iter()
        .enumerate()
        .filter(|(r, _)| live(*r))
        .all(|(_, &g)| g >= next)
    {
        c.barrier_released = next;
        drop(c);
        for dest in 1..s.ranks {
            if live(dest as usize) {
                enqueue_control(s, dest, FrameKind::BarrierRelease, &u32_body(next));
            }
        }
        let mut sync = s.sync.lock().unwrap();
        sync.barrier_release_gen = sync.barrier_release_gen.max(next);
        drop(sync);
        s.sync_cv.notify_all();
    }
}

/// Non-blocking read pump for one peer; returns whether bytes arrived.
fn pump_reads(s: &Shared, r: u32) -> bool {
    let peer_cell = match &s.peers[r as usize] {
        Some(p) => p,
        None => return false,
    };
    let mut progressed = false;
    // A clean goodbye and the EOF often land in the same pump; every read is
    // followed by handling the frames it completed (the Bye among them),
    // so the verdict on a hangup always comes after them.
    let mut hangup: Option<String> = None;
    {
        let peer = &mut *peer_cell.lock();
        if peer.closed {
            return false;
        }
        // A bounded number of reads per pump: a peer that never stops
        // sending must not keep this thread from its writes, acks and timers.
        for _ in 0..READS_PER_PUMP {
            if hangup.is_some() {
                break;
            }
            match peer.decoder.read_from(&mut peer.stream) {
                Ok(0) => hangup = Some("hung up".into()),
                Ok(_) => {
                    progressed = true;
                    peer.last_rx = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => hangup = Some(format!("read failed: {e}")),
            }
            // Frames are handled where they lie in the receive buffer.
            loop {
                match peer.decoder.next_ref() {
                    Ok(Some((kind, _, body))) => handle_frame(s, r, kind, body, &mut peer.closed),
                    Ok(None) => break,
                    Err(e) => {
                        // Structural corruption is unrecoverable for this
                        // connection (the decoder stays poisoned): hard-fail
                        // the *link*, not the process.
                        hangup = Some(format!("stream corrupt: {e}"));
                        break;
                    }
                }
            }
        }
    }
    if let Some(why) = hangup {
        let mut peer = peer_cell.lock();
        // Only a hangup while the current epoch's work is still open is a
        // crash; once termination is detected the ranks race each other
        // through barrier/shutdown and a peer may exit before our own stop
        // flag is raised.  A premature exit still surfaces through the
        // launcher's exit-status collection.
        let done = s.done_epoch.load(Ordering::SeqCst) >= s.epoch.load(Ordering::SeqCst);
        if !peer.closed && !done && !s.stop.load(Ordering::Relaxed) {
            peer.closed = true;
            drop(peer);
            mark_peer_down(s, r, ConvictionReason::DirtyClose, &why);
            return progressed;
        }
        // `done` also holds before the first epoch opens (0 >= 0), so a
        // crash during workload build lands here; remember it as dirty and
        // let the suspicion sweep convict once an epoch is running.
        if !peer.closed && !s.stop.load(Ordering::Relaxed) {
            peer.dirty = true;
        }
        peer.closed = true;
    }
    progressed
}

/// Write pump: retire queued frames; returns whether bytes moved.
fn pump_writes(s: &Shared) -> bool {
    let mut progressed = false;
    let mut out = s.out.lock().unwrap();
    let start = s.hooks.get().map(|h| (h.now_ns)());
    for r in 0..s.ranks {
        if r == s.rank {
            continue;
        }
        let peer_cell = match &s.peers[r as usize] {
            Some(p) => p,
            None => continue,
        };
        let mut peer = peer_cell.lock();
        // The head frame stays queued (cloning counts a reference) until written.
        while let Some((frame, is_parcels)) = out.queues[r as usize].front().cloned() {
            let off = out.offsets[r as usize];
            match peer.stream.write(&frame[off..]) {
                Ok(0) => fatal(&format!("rank {}: zero-length write to rank {r}", s.rank)),
                Ok(n) => {
                    progressed = true;
                    out.queued_bytes -= n;
                    if off + n < frame.len() {
                        out.offsets[r as usize] = off + n;
                        break;
                    }
                    out.offsets[r as usize] = 0;
                    out.queues[r as usize].pop_front();
                    out.parcel_frames -= usize::from(is_parcels);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let known_gone = s.stop.load(Ordering::Relaxed)
                        || peer.closed
                        || s.peer_down.load(Ordering::Relaxed) == r;
                    let conn_dead = matches!(
                        e.kind(),
                        std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    );
                    if !known_gone && !conn_dead {
                        fatal(&format!("rank {}: write to rank {r}: {e}", s.rank));
                    }
                    // Peer gone (shutdown race, declared down, or its
                    // socket died under this very write — the same crash
                    // signal the reader sees as a hangup, racing it here):
                    // drop its queue.
                    out.drop_queue(r as usize);
                    if !known_gone {
                        // Mirror the read-side hangup discipline: convict
                        // while the epoch's work is open, otherwise just
                        // remember the dirty close for the suspicion sweep.
                        let done =
                            s.done_epoch.load(Ordering::SeqCst) >= s.epoch.load(Ordering::SeqCst);
                        peer.closed = true;
                        if !done {
                            drop(peer);
                            mark_peer_down(
                                s,
                                r,
                                ConvictionReason::DirtyClose,
                                &format!("write failed: {e}"),
                            );
                        } else {
                            peer.dirty = true;
                        }
                    }
                    break;
                }
            }
        }
    }
    if progressed {
        if let (Some(start), Some(h)) = (start, s.hooks.get()) {
            push_trace(s, TRACE_CLASS_TX, start, (h.now_ns)());
        }
        s.out_cv.notify_all();
    }
    progressed
}

/// Per-iteration reliability maintenance: release injector holds, fire due
/// retransmissions, ship standalone acks.  Returns whether anything moved.
fn pump_reliability(s: &Shared, now: u64) -> bool {
    let mut progressed = false;
    let mut out = s.out.lock().unwrap();
    // Release delay holds whose time has come.
    let mut i = 0;
    while i < out.delayed.len() {
        if out.delayed[i].0 <= now {
            let (_, dest, frame) = out.delayed.swap_remove(i);
            enqueue_raw(s, &mut out, dest, frame, true);
            progressed = true;
        } else {
            i += 1;
        }
    }
    // Release any reorder pocket that found no successor this iteration —
    // the hold must be an adjacent swap, never a stall.
    for d in 0..s.ranks as usize {
        if let Some(frame) = out.pocket[d].take() {
            enqueue_raw(s, &mut out, d as u32, frame, true);
            progressed = true;
        }
    }
    // Retransmissions + standalone acks.
    let mut acks: Vec<(u32, u64)> = Vec::new();
    {
        let mut arq = s.arq.lock();
        for r in 0..s.ranks {
            if r == s.rank || s.peers[r as usize].is_none() {
                continue;
            }
            if s.peer_down.load(Ordering::Relaxed) == r {
                continue;
            }
            let due = arq.senders[r as usize].due_retransmits(now, &s.rcfg);
            if !due.is_empty() {
                let ack = arq.receivers[r as usize].cum_ack();
                arq.acked_sent[r as usize] = arq.acked_sent[r as usize].max(ack);
                let count = due.len() as u64;
                for mut rt in due {
                    // Patch the fresh ack in and re-checksum, in place.
                    seal_seq_parcels(&mut rt.body, s.rank as u16, rt.seq, ack);
                    let frame = Arc::new(rt.body);
                    transmit_parcel_frame(s, &mut out, r, rt.seq, rt.attempt, frame);
                }
                s.metrics.lock().retransmit_frames += count;
                push_trace(s, TRACE_CLASS_RETRANSMIT, now, now);
                progressed = true;
            }
            let cur = arq.receivers[r as usize].cum_ack();
            if cur > arq.acked_sent[r as usize] || arq.ack_due[r as usize] {
                arq.acked_sent[r as usize] = cur;
                arq.ack_due[r as usize] = false;
                acks.push((r, cur));
            }
        }
    }
    for (r, ack) in acks {
        enqueue_control_locked(s, &mut out, r, FrameKind::Ack, &ack_body(ack));
        s.metrics.lock().acks_tx += 1;
        push_trace(s, TRACE_CLASS_ACK, now, now);
        progressed = true;
    }
    progressed
}

/// Whether every outbound lane is drained *and acknowledged* — the gate on
/// STATUS reports that keeps termination loss-safe.  A fenced rank's lane
/// is exempt: it was drained at the fence and can never ack again.
fn outbound_clear(s: &Shared, out: &Outbound) -> bool {
    let dead = fenced_dead(s);
    out.coalescer.is_empty()
        && out.parcel_frames == 0
        && out.delayed.is_empty()
        && out.pocket.iter().all(Option::is_none)
        && out.deferred.is_empty()
        && s.arq
            .lock()
            .senders
            .iter()
            .enumerate()
            .all(|(r, t)| r as u32 == dead || t.all_acked())
}

/// The per-locality progress engine.
fn progress_loop(s: &Shared) {
    let mut last_status_ns = 0u64;
    let mut own_seq = 0u64;
    let mut bye_sent = false;
    let mut stall_done = false;
    let mut last_heartbeat = Instant::now();
    let heartbeat_every = (s.suspicion / 8).max(Duration::from_millis(5));
    loop {
        // An injected sever models a process death without exiting the
        // test process: shut every socket abruptly (no goodbye) and stop.
        if s.severed.load(Ordering::SeqCst) {
            for p in s.peers.iter().flatten() {
                let _ = p.lock().stream.shutdown(std::net::Shutdown::Both);
            }
            s.out_cv.notify_all();
            s.sync_cv.notify_all();
            return;
        }
        // Scheduled locality faults (the injected kill never says goodbye),
        // timed from the first evaluation's network build.
        if let (Some(plan), Some(armed)) = (&s.faults, s.armed.get()) {
            let elapsed_ms = armed.elapsed().as_millis() as u64;
            if let Some(k) = plan.kill {
                if k.rank == s.rank && elapsed_ms >= k.at_ms {
                    eprintln!(
                        "dashmm-net: rank {}: injected kill at +{}ms",
                        s.rank, elapsed_ms
                    );
                    std::process::exit(KILL_EXIT_CODE);
                }
            }
            if let Some(st) = plan.stall {
                if st.rank == s.rank && !stall_done && elapsed_ms >= st.at_ms {
                    eprintln!(
                        "dashmm-net: rank {}: injected stall for {}ms at +{}ms",
                        s.rank, st.dur_ms, elapsed_ms
                    );
                    std::thread::sleep(Duration::from_millis(st.dur_ms));
                    stall_done = true;
                }
            }
        }
        let mut progressed = false;
        for r in 0..s.ranks {
            if r != s.rank {
                progressed |= pump_reads(s, r);
            }
        }
        if let Some(h) = s.hooks.get() {
            let now = (h.now_ns)();
            let stopping = s.stop.load(Ordering::Relaxed);
            progressed |= pump_reliability(s, now);
            // Age out coalescing buffers; drain them entirely when idle.
            // A destination whose write queue is over budget defers its
            // idle/aged flushes (send-side backpressure) instead of
            // growing the queue against an unwritable socket.
            let empty = {
                let mut out = s.out.lock().unwrap();
                let mut candidates: Vec<Flush> = out.deferred.drain(..).collect();
                candidates.extend(out.coalescer.flush_aged(now));
                if (h.locally_idle)() || stopping {
                    let reason = if stopping {
                        FlushReason::Shutdown
                    } else {
                        FlushReason::Idle
                    };
                    candidates.extend(out.coalescer.flush_all(reason));
                }
                for f in candidates {
                    let dest = f.dest as usize;
                    let dest_bytes: usize = out.queues[dest].iter().map(|(fr, _)| fr.len()).sum();
                    if !stopping && dest_bytes > s.cfg.max_queue_bytes {
                        s.metrics.lock().idle_deferrals += 1;
                        out.deferred.push_back(f);
                    } else {
                        progressed = true;
                        enqueue_flush(s, &mut out, f);
                    }
                }
                outbound_clear(s, &out)
            };
            // Report idle status to the coordinator.  `sent` is the acked
            // parcel count — `outbound_clear` guarantees acked == sent, so
            // unrepaired loss withholds the report entirely.
            if !stopping
                && empty
                && (h.locally_idle)()
                && now.saturating_sub(last_status_ns) >= STATUS_INTERVAL_NS
            {
                last_status_ns = now;
                own_seq += 1;
                // When fenced, counters cover live lanes only: parcels the
                // dead rank acked before dying leave Σsent, and parcels it
                // delivered to us leave Σrecv — the survivor-set balance.
                let dead = fenced_dead(s);
                let sent_acked: u64 = {
                    let arq = s.arq.lock();
                    arq.senders
                        .iter()
                        .enumerate()
                        .filter(|(r, _)| *r as u32 != dead)
                        .map(|(_, t)| t.acked_parcels())
                        .sum()
                };
                let recv = s.recv.load(Ordering::SeqCst)
                    - if dead != PEER_NONE {
                        s.recv_from[dead as usize].load(Ordering::SeqCst)
                    } else {
                        0
                    };
                let st = RankStatus {
                    epoch: s.epoch.load(Ordering::SeqCst),
                    seq: own_seq,
                    sent: sent_acked,
                    recv,
                };
                if s.rank == 0 {
                    s.coord.lock().status[0] = st;
                } else {
                    let body = status_body(st.epoch, st.seq, st.sent, st.recv);
                    enqueue_control(s, 0, FrameKind::Status, &body);
                }
            }
            // Heartbeats + suspicion.
            if !stopping && last_heartbeat.elapsed() >= heartbeat_every {
                last_heartbeat = Instant::now();
                // Progress-ledger gossip rides the heartbeat cadence: fold
                // the current ARQ ack watermarks in, then ship a snapshot
                // to every live peer.
                let ledger_body: Option<Vec<u8>> = {
                    let ledger = s.ledger.lock();
                    ledger.as_ref().map(|l| {
                        let arq = s.arq.lock();
                        for r in 0..s.ranks {
                            if r != s.rank {
                                l.note_acked(r, arq.senders[r as usize].acked_parcels());
                            }
                        }
                        drop(arq);
                        let mut body = Vec::new();
                        l.snapshot().encode(&mut body);
                        body
                    })
                };
                let mut out = s.out.lock().unwrap();
                for r in 0..s.ranks {
                    if r == s.rank || s.peers[r as usize].is_none() {
                        continue;
                    }
                    let closed = s.peers[r as usize].as_ref().unwrap().lock().closed;
                    if !closed {
                        enqueue_control_locked(s, &mut out, r, FrameKind::Heartbeat, &[]);
                        s.metrics.lock().heartbeats_tx += 1;
                        push_trace(s, TRACE_CLASS_HEARTBEAT, now, now);
                        if let Some(body) = &ledger_body {
                            enqueue_control_locked(s, &mut out, r, FrameKind::Ledger, body);
                        }
                    }
                }
                drop(out);
                let open_epoch =
                    s.done_epoch.load(Ordering::SeqCst) < s.epoch.load(Ordering::SeqCst);
                for r in 0..s.ranks {
                    if r == s.rank {
                        continue;
                    }
                    if let Some(p) = &s.peers[r as usize] {
                        let (closed, dirty, silent_for) = {
                            let p = p.lock();
                            (p.closed, p.dirty, p.last_rx.elapsed())
                        };
                        if !closed && silent_for > s.suspicion {
                            mark_peer_down(
                                s,
                                r,
                                ConvictionReason::HeartbeatTimeout,
                                &format!("no traffic for {}ms", silent_for.as_millis()),
                            );
                        } else if closed && dirty && open_epoch {
                            // Crashed before the epoch opened (the hangup was
                            // provisionally treated as benign); now that work
                            // depends on this peer, convict it.
                            mark_peer_down(
                                s,
                                r,
                                ConvictionReason::DirtyClose,
                                "hung up before the epoch opened",
                            );
                        }
                    }
                }
            }
        }
        if s.rank == 0 {
            coordinate(s);
        }
        if s.stop.load(Ordering::Relaxed) && !bye_sent {
            bye_sent = true;
            for r in 0..s.ranks {
                if r != s.rank && s.peers[r as usize].is_some() {
                    enqueue_control(s, r, FrameKind::Bye, &[]);
                }
            }
            s.out_cv.notify_all();
        }
        progressed |= pump_writes(s);
        if bye_sent && s.out.lock().unwrap().queued_bytes == 0 {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(30));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_amt::{ActionId, GlobalAddress};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn transport(rank: u32, stream: TcpStream, cfg: CoalesceConfig) -> Arc<SocketTransport> {
        transport_with(rank, stream, cfg, None)
    }

    fn transport_with(
        rank: u32,
        stream: TcpStream,
        cfg: CoalesceConfig,
        faults: Option<FaultPlan>,
    ) -> Arc<SocketTransport> {
        let mut peers = vec![None, None];
        peers[(1 - rank) as usize] = Some(stream);
        let rcfg = RetransmitConfig {
            timeout_us: 1_000,
            ..RetransmitConfig::default()
        };
        Arc::new(SocketTransport::with_options(
            rank,
            2,
            peers,
            cfg,
            Duration::from_secs(30),
            faults,
            rcfg,
            Duration::from_secs(5),
        ))
    }

    fn attach_counting(
        t: &SocketTransport,
        delivered: Arc<Mutex<Vec<Parcel>>>,
        idle: Arc<AtomicBool>,
    ) {
        let epoch = Instant::now();
        t.attach(TransportHooks {
            deliver: Box::new(move |p| delivered.lock().push(p)),
            locally_idle: Box::new(move || idle.load(Ordering::SeqCst)),
            now_ns: Box::new(move || epoch.elapsed().as_nanos() as u64),
        });
    }

    /// Two transports over a real socket pair: parcels sent from rank 0
    /// arrive at rank 1, coalesced, and the pair detects termination.
    #[test]
    fn two_rank_delivery_and_termination() {
        let (a, b) = pair();
        let t0 = transport(0, a, CoalesceConfig::default());
        let t1 = transport(1, b, CoalesceConfig::default());
        let d0 = Arc::new(Mutex::new(Vec::new()));
        let d1 = Arc::new(Mutex::new(Vec::new()));
        let idle0 = Arc::new(AtomicBool::new(false));
        let idle1 = Arc::new(AtomicBool::new(true));
        attach_counting(&t0, d0.clone(), idle0.clone());
        attach_counting(&t1, d1.clone(), idle1.clone());
        t0.begin_run();
        t1.begin_run();
        for i in 0..100u32 {
            t0.send(Parcel::new(
                ActionId(3),
                GlobalAddress::new(1, i),
                vec![i as u8; 24],
            ));
        }
        idle0.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(20);
        while !(t0.poll_quiescence(true) && t1.poll_quiescence(true)) {
            assert!(Instant::now() < deadline, "termination not detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(d1.lock().len(), 100);
        assert!(d0.lock().is_empty());
        let m = t0.metrics();
        assert_eq!(m.per_dest[1].parcels, 100);
        assert!(m.frames_sent() < 100, "parcels were coalesced");
        assert!(t0.stats().parcels_sent == 100 && t1.stats().parcels_received == 100);
        assert_eq!(t0.failed_peer(), None);
        let b1 = std::thread::spawn({
            let t1 = Arc::clone(&t1);
            move || t1.barrier().unwrap()
        });
        t0.barrier().unwrap();
        b1.join().unwrap();
        t0.shutdown();
        t1.shutdown();
    }

    /// Gather collects every rank's blob at rank 0.
    #[test]
    fn gather_collects_parts() {
        let (a, b) = pair();
        let t0 = transport(0, a, CoalesceConfig::default());
        let t1 = transport(1, b, CoalesceConfig::default());
        let idle = Arc::new(AtomicBool::new(true));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle.clone());
        attach_counting(&t1, Arc::new(Mutex::new(Vec::new())), idle.clone());
        let from1 = std::thread::spawn({
            let t1 = Arc::clone(&t1);
            move || t1.gather(b"from-one").unwrap()
        });
        let parts = t0.gather(b"from-zero").unwrap().expect("rank 0 gets parts");
        assert_eq!(parts[0], b"from-zero");
        assert_eq!(parts[1], b"from-one");
        assert_eq!(from1.join().unwrap(), None);
        t0.shutdown();
        t1.shutdown();
    }

    /// A seeded lossy/duplicating/corrupting/reordering link still delivers
    /// every parcel exactly once and reaches termination — the tentpole's
    /// end-to-end property at the transport level.
    #[test]
    fn faulty_link_delivers_exactly_once_and_terminates() {
        let plan = FaultPlan::parse("seed=11,drop=0.15,dup=0.1,corrupt=0.05,reorder=0.1").unwrap();
        let (a, b) = pair();
        // Disable coalescing so every parcel rides its own frame — many
        // frames, many independent fault rolls.
        let cfg = CoalesceConfig::disabled();
        let t0 = transport_with(0, a, cfg, Some(plan));
        let t1 = transport_with(1, b, cfg, Some(plan));
        let d1 = Arc::new(Mutex::new(Vec::new()));
        let idle0 = Arc::new(AtomicBool::new(false));
        let idle1 = Arc::new(AtomicBool::new(true));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle0.clone());
        attach_counting(&t1, d1.clone(), idle1.clone());
        t0.begin_run();
        t1.begin_run();
        for i in 0..200u32 {
            t0.send(Parcel::new(
                ActionId(3),
                GlobalAddress::new(1, i),
                vec![(i % 251) as u8; 16],
            ));
        }
        idle0.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(25);
        while !(t0.poll_quiescence(true) && t1.poll_quiescence(true)) {
            assert!(
                Instant::now() < deadline,
                "termination not detected under faults (rtx {})",
                t0.metrics().retransmit_frames
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = d1.lock();
        assert_eq!(got.len(), 200, "exactly-once delivery violated");
        let mut indices: Vec<u32> = got.iter().map(|p| p.target.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..200).collect::<Vec<_>>());
        drop(got);
        let m0 = t0.metrics();
        assert!(
            m0.retransmit_frames > 0,
            "a 15% drop rate must force retransmissions"
        );
        assert!(m0.injected_total() > 0);
        t0.shutdown();
        t1.shutdown();
    }

    /// A peer that vanishes mid-run (no goodbye) is surfaced as a failed
    /// peer instead of hanging or killing the process, and collectives
    /// fail fast.
    #[test]
    fn midrun_hangup_surfaces_peer_down() {
        let (a, b) = pair();
        let t0 = transport(0, a, CoalesceConfig::default());
        let idle = Arc::new(AtomicBool::new(false));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle.clone());
        t0.begin_run();
        // Rank 1 "crashes": the raw socket drops with the run still open.
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(10);
        while t0.failed_peer().is_none() {
            assert!(Instant::now() < deadline, "peer death not detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(t0.failed_peer(), Some(1));
        let err = t0.barrier().expect_err("barrier must fail fast");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        t0.shutdown();
    }

    /// With recovery on, a convicted peer can be fenced: the survivor's
    /// termination detection, barrier and gather all converge over the
    /// survivor set instead of failing fast or hanging.
    #[test]
    fn fenced_peer_death_lets_survivor_finish() {
        let (a, b) = pair();
        let t0 = transport(0, a, CoalesceConfig::default());
        t0.set_recover(true);
        let t1 = transport(1, b, CoalesceConfig::default());
        let idle0 = Arc::new(AtomicBool::new(false));
        let idle1 = Arc::new(AtomicBool::new(true));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle0.clone());
        attach_counting(&t1, Arc::new(Mutex::new(Vec::new())), idle1.clone());
        t0.begin_run();
        t1.begin_run();
        // Traffic toward the soon-to-die rank exercises the fence drain.
        for i in 0..20u32 {
            t0.send(Parcel::new(
                ActionId(3),
                GlobalAddress::new(1, i),
                vec![0; 16],
            ));
        }
        // Rank 1 "dies" abruptly: sockets shut with no goodbye.
        t1.sever();
        assert!(t1.poll_quiescence(false), "a severed rank reads quiescent");
        let deadline = Instant::now() + Duration::from_secs(10);
        while t0.failed_peer().is_none() {
            assert!(Instant::now() < deadline, "peer death not detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        let info = t0.failed_peer_info().expect("conviction record");
        assert_eq!(info.rank, 1);
        assert_eq!(info.reason, dashmm_amt::ConvictionReason::DirtyClose);
        assert_eq!(info.epoch, 1, "conviction stamped with the open epoch");
        assert!(t0.fence_peer(1), "recovery mode accepts the fence");
        assert!(!t0.fence_peer(0), "rank 0 is never fenceable");
        // Survivor-set termination must now converge with only rank 0.
        idle0.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t0.poll_quiescence(true) {
            assert!(
                Instant::now() < deadline,
                "survivor termination not detected after fence"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Collectives proceed over the survivor set.
        t0.barrier().expect("fenced barrier releases");
        let parts = t0.gather(b"alive").expect("fenced gather").unwrap();
        assert_eq!(parts[0], b"alive");
        assert!(parts[1].is_empty(), "dead rank contributes an empty part");
        let m = t0.metrics();
        assert_eq!(m.failure.map(|f| f.rank), Some(1));
        t0.shutdown();
        t1.shutdown();
    }

    /// A peer that stops acking (stalled progress thread) cannot grow the
    /// sender's retransmit queue past the configured bound — the worker
    /// blocks instead, and the peak is metered.
    #[test]
    fn stalled_peer_bounds_retransmit_queue() {
        let (a, b) = pair();
        let cap = 4 * 1024;
        let rcfg = RetransmitConfig {
            // Long timeout: no retransmissions muddy the byte accounting.
            timeout_us: 5_000_000,
            max_unacked_bytes: cap,
            ..RetransmitConfig::default()
        };
        let mut peers = vec![None, None];
        peers[1] = Some(a);
        // Rank 1 never attaches: it reads nothing and acks nothing — the
        // stalled-peer model (`b` stays open so writes keep succeeding).
        let t0 = Arc::new(SocketTransport::with_options(
            0,
            2,
            peers,
            CoalesceConfig::disabled(),
            Duration::from_secs(30),
            None,
            rcfg,
            Duration::from_secs(60),
        ));
        let idle = Arc::new(AtomicBool::new(false));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle);
        t0.begin_run();
        let sender = std::thread::spawn({
            let t0 = Arc::clone(&t0);
            move || {
                for i in 0..2_000u32 {
                    t0.send(Parcel::new(
                        ActionId(3),
                        GlobalAddress::new(1, i),
                        vec![0; 64],
                    ));
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(15);
        while t0.metrics().arq_backpressure_stalls == 0 {
            assert!(
                Instant::now() < deadline,
                "sender never hit the ARQ bound (peak {} B)",
                t0.metrics().retransmit_queue_peak
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let peak = t0.metrics().retransmit_queue_peak;
        // One worker can overshoot by at most one in-flight frame.
        assert!(
            peak as usize <= cap + 2 * 1024,
            "retransmit queue grew past its bound: peak {peak} B, cap {cap} B"
        );
        // Shutdown releases the blocked sender (120K parcels of backlog
        // never materialise in memory).
        t0.shutdown();
        sender.join().unwrap();
        drop(b);
    }

    /// With faults disabled the ARQ layer is pure bookkeeping: no
    /// retransmits, no duplicates, no injected events.
    #[test]
    fn fault_free_run_is_clean() {
        let (a, b) = pair();
        let t0 = transport(0, a, CoalesceConfig::default());
        let t1 = transport(1, b, CoalesceConfig::default());
        let d1 = Arc::new(Mutex::new(Vec::new()));
        let idle0 = Arc::new(AtomicBool::new(false));
        let idle1 = Arc::new(AtomicBool::new(true));
        attach_counting(&t0, Arc::new(Mutex::new(Vec::new())), idle0.clone());
        attach_counting(&t1, d1.clone(), idle1.clone());
        t0.begin_run();
        t1.begin_run();
        for i in 0..50u32 {
            t0.send(Parcel::new(
                ActionId(1),
                GlobalAddress::new(1, i),
                vec![0; 8],
            ));
        }
        idle0.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(20);
        while !(t0.poll_quiescence(true) && t1.poll_quiescence(true)) {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        let m = t0.metrics();
        assert_eq!(m.retransmit_frames, 0);
        assert_eq!(m.injected_total(), 0);
        assert_eq!(t1.metrics().dup_frames_rx, 0);
        assert_eq!(t1.metrics().corrupt_frames_rx, 0);
        t0.shutdown();
        t1.shutdown();
    }
}
