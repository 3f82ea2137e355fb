//! Every call the end-to-end benchmark makes into the program.
//!
//! This file is the seam: the items imported below are all of the program
//! that the `perf` binary names (listed in `perf/README.md`).  A later
//! change to the program that keeps these items keeps the benchmark
//! compiling unedited.  Values the program returns are handed to the
//! [`Probe`] untyped; only `layers_api.rs` looks inside them.

use std::io;
use std::sync::Arc;

use dashmm::kernels::{direct_sum_at, Laplace, Yukawa};
use dashmm::tree::{BuildParams, Domain, Point3};
use dashmm::{DashmmBuilder, Evaluation, Method, ResidentConfig, ResidentFmm};
use dashmm_net::{
    bootstrap, EvalClient, EvalServer, RespStatus, Role, ServiceConfig, SocketTransport,
};
use dashmm_refit::{ChargeUpdate, Displacement};

use crate::probe::Probe;

pub type P3 = [f64; 3];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelSpec {
    Laplace,
    Yukawa(f64),
}

pub fn points(ps: &[P3]) -> Vec<Point3> {
    ps.iter().map(|p| Point3::new(p[0], p[1], p[2])).collect()
}

// ---------------------------------------------------------------------------
// Batch evaluation
// ---------------------------------------------------------------------------

/// What one batch evaluation is built from.
pub struct FmmProblem<'a> {
    pub kernel: KernelSpec,
    pub sources: &'a [P3],
    pub charges: &'a [f64],
    pub targets: &'a [P3],
    pub threshold: usize,
    pub workers: usize,
}

/// A built evaluation: dual tree, DAG and runtime.
pub enum Fmm {
    Laplace(Evaluation<Laplace>),
    Yukawa(Evaluation<Yukawa>),
}

/// One locality's connection to the others.
pub type Net = Arc<SocketTransport>;

pub fn fmm_build(probe: &impl Probe, p: &FmmProblem, net: Option<&Net>) -> Fmm {
    let _span = probe.enter("core.build", 0);
    let (sources, targets) = (points(p.sources), points(p.targets));
    macro_rules! build {
        ($kernel:expr) => {{
            let mut b = DashmmBuilder::new($kernel)
                .method(Method::AdvancedFmm)
                .threshold(p.threshold)
                .machine(1, p.workers);
            if let Some(net) = net {
                b = b.transport(net.clone());
            }
            probe.tune(b).build(&sources, p.charges, &targets)
        }};
    }
    match p.kernel {
        KernelSpec::Laplace => Fmm::Laplace(build!(Laplace)),
        KernelSpec::Yukawa(lambda) => Fmm::Yukawa(build!(Yukawa::new(lambda))),
    }
}

/// Evaluate with the build-time charges, or with `charges` when given.
pub fn fmm_eval(probe: &impl Probe, fmm: &Fmm, charges: Option<&[f64]>, op_id: u64) -> Vec<f64> {
    let _span = probe.enter("core.evaluate", op_id);
    macro_rules! eval {
        ($e:expr) => {
            match charges {
                Some(q) => $e.evaluate_with_charges(q),
                None => $e.evaluate(),
            }
        };
    }
    let out = match fmm {
        Fmm::Laplace(e) => eval!(e),
        Fmm::Yukawa(e) => eval!(e),
    };
    probe.saw(&out, op_id);
    out.potentials
}

/// The exact potential at one target, for the accuracy checks.
pub fn direct_at(kernel: KernelSpec, sources: &[P3], charges: &[f64], target: &P3) -> f64 {
    match kernel {
        KernelSpec::Laplace => direct_sum_at(&Laplace, sources, charges, target),
        KernelSpec::Yukawa(lambda) => direct_sum_at(&Yukawa::new(lambda), sources, charges, target),
    }
}

// ---------------------------------------------------------------------------
// Localities as processes
// ---------------------------------------------------------------------------

pub enum Joined {
    /// This process spawned the localities and they have all exited.
    Launcher { all_ok: bool },
    /// This process is one locality with its mesh connected.
    Rank(Net),
}

/// Become the launcher of `ranks` copies of this binary or, in a copy, one
/// of the localities.  Default coalescing, no fault plan.
pub fn net_join(ranks: u32) -> io::Result<Joined> {
    Ok(match bootstrap(ranks, Default::default())? {
        Role::Launcher(report) => Joined::Launcher {
            all_ok: report.success(),
        },
        Role::Rank(net) => Joined::Rank(net),
    })
}

/// The rank of this process if [`net_join`] spawned it as a locality.
pub fn spawned_rank() -> Option<u32> {
    std::env::var("DASHMM_NET_RANK").ok()?.parse().ok()
}

/// Seconds after which a launch or a collective gives up, unless the
/// environment already says.
pub fn default_net_timeout(seconds: u64) {
    if std::env::var_os("DASHMM_NET_TIMEOUT_SECS").is_none() {
        std::env::set_var("DASHMM_NET_TIMEOUT_SECS", seconds.to_string());
    }
}

pub fn net_barrier(net: &Net) -> io::Result<()> {
    net.barrier()
}

/// Element-wise sum over the localities of `part`, at rank 0.
pub fn net_gather_sum(net: &Net, part: &[f64]) -> io::Result<Option<Vec<f64>>> {
    let bytes: Vec<u8> = part.iter().flat_map(|x| x.to_le_bytes()).collect();
    Ok(net.gather(&bytes)?.map(|parts| {
        let mut sum = vec![0.0; part.len()];
        for blob in &parts {
            for (acc, chunk) in sum.iter_mut().zip(blob.chunks_exact(8)) {
                *acc += f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
        }
        sum
    }))
}

pub fn net_shutdown(probe: &impl Probe, net: &Net) {
    probe.saw(net, 0);
    net.shutdown();
}

// ---------------------------------------------------------------------------
// Resident engine: queries and steps
// ---------------------------------------------------------------------------

pub struct Resident(ResidentFmm<Laplace>);

pub struct ResidentSpec {
    pub threshold: usize,
    pub theta: f64,
    /// Half side of a fixed cubic domain centred on the origin; `None`
    /// fits the domain to the sources.
    pub domain_half: Option<f64>,
}

pub fn resident_build(sources: &[P3], charges: &[f64], spec: &ResidentSpec) -> Resident {
    let cfg = ResidentConfig {
        theta: spec.theta,
        build: BuildParams {
            threshold: spec.threshold,
            ..Default::default()
        },
        ..Default::default()
    };
    let sources = points(sources);
    Resident(match spec.domain_half {
        Some(half) => ResidentFmm::build_in_domain(
            Laplace,
            &sources,
            charges,
            cfg,
            Domain::new(Point3::new(0.0, 0.0, 0.0), half),
        ),
        None => ResidentFmm::build(Laplace, &sources, charges, cfg),
    })
}

pub fn resident_eval(resident: &Resident, targets: &[P3], out: &mut [f64]) {
    resident.0.evaluate(targets, out);
}

/// Move the sources `moves` names by the given deltas.
pub fn resident_step(probe: &impl Probe, resident: &mut Resident, moves: &[(u32, P3)], op_id: u64) {
    let moves: Vec<Displacement> = moves
        .iter()
        .map(|&(index, delta)| Displacement { index, delta })
        .collect();
    let no_charges: [ChargeUpdate; 0] = [];
    let _span = probe.enter("core.step", op_id);
    let report = resident.0.step(&moves, &no_charges);
    probe.saw(&report, op_id);
}

/// Current source positions and charges, in build order.
pub fn resident_snapshot(resident: &Resident) -> (Vec<P3>, Vec<f64>) {
    let sources = resident.0.current_sources();
    (
        sources.iter().map(|p| [p.x, p.y, p.z]).collect(),
        resident.0.current_charges(),
    )
}

// ---------------------------------------------------------------------------
// Evaluation service
// ---------------------------------------------------------------------------

pub struct Server(EvalServer);

/// Serve `resident` on an OS-assigned loopback port with one evaluation
/// worker and default admission.
pub fn serve(resident: Arc<Resident>) -> io::Result<Server> {
    let engine = move |targets: &[P3], out: &mut [f64]| resident.0.evaluate(targets, out);
    let cfg = ServiceConfig {
        eval_workers: 1,
        ..Default::default()
    };
    EvalServer::bind("127.0.0.1:0", Arc::new(engine), cfg).map(Server)
}

pub fn server_port(server: &Server) -> u16 {
    server.0.port()
}

pub fn server_stop(probe: &impl Probe, mut server: Server) {
    probe.saw(&server.0, 0);
    server.0.shutdown();
}

pub struct Client(EvalClient);

pub fn connect(port: u16) -> io::Result<Client> {
    EvalClient::connect(&format!("127.0.0.1:{port}")).map(Client)
}

/// One request round trip.  A shed, refused or errored request is `Err`.
pub fn request(
    probe: &impl Probe,
    client: &mut Client,
    targets: &[P3],
    op_id: u64,
) -> Result<Vec<f64>, String> {
    let _span = probe.enter("net.svc.request", op_id);
    let resp = client.0.eval(0, targets).map_err(|e| e.to_string())?;
    probe.saw(&resp, op_id);
    if resp.status == RespStatus::Ok {
        Ok(resp.potentials)
    } else {
        Err(format!("status {:?}", resp.status))
    }
}

// ---------------------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------------------

/// Whether the FMA GEMM micro-kernel and the SIMD kernel tiles are in use
/// on this host: `(fma, simd)`.
pub fn kernel_flags() -> (bool, bool) {
    (
        dashmm::linalg::fma_kernel_active(),
        dashmm::kernels::simd_kernels_active(),
    )
}
