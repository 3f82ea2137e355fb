//! Process launcher and rendezvous: localities as OS processes.
//!
//! [`bootstrap`] turns one invocation of a binary into `ranks` cooperating
//! processes.  The first invocation (no [`ENV_RANK`] in the environment)
//! becomes the **launcher**: it binds a rendezvous socket on loopback,
//! re-executes itself `ranks` times with the rank, world size and
//! rendezvous address in the environment, brokers the port exchange, and
//! waits for every child to exit.  Each child binds its own mesh listener,
//! reports `HELLO(rank, port)` to the rendezvous, receives the `PORTMAP`
//! of all ranks, and builds a full TCP mesh (connect to lower ranks,
//! accept from higher ranks) before returning a ready
//! [`SocketTransport`].
//!
//! Everything runs on 127.0.0.1 with OS-assigned ports, so multi-process
//! runs work offline and many can run concurrently.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dashmm_amt::CoalesceConfig;
use dashmm_obs::codec::{read_body, write_body, BodyCursor, BodyError};

use crate::transport::SocketTransport;
use crate::wire::{encode_frame, Frame, FrameDecoder, FrameKind};

/// Environment variable carrying a child's rank.
pub const ENV_RANK: &str = "DASHMM_NET_RANK";
/// Environment variable carrying the world size.
pub const ENV_RANKS: &str = "DASHMM_NET_RANKS";
/// Environment variable carrying the launcher's rendezvous address.
pub const ENV_RENDEZVOUS: &str = "DASHMM_NET_RENDEZVOUS";
/// Environment variable overriding the bootstrap/shutdown timeout.
pub const ENV_TIMEOUT_SECS: &str = "DASHMM_NET_TIMEOUT_SECS";

/// This process's rank, if it was spawned by a launcher.
pub fn env_rank() -> Option<u32> {
    std::env::var(ENV_RANK).ok()?.parse().ok()
}

/// The bootstrap / collective timeout (default 120 s).
pub fn net_timeout() -> Duration {
    let secs = std::env::var(ENV_TIMEOUT_SECS)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    Duration::from_secs(secs)
}

/// What every child process exited with, collected by the launcher.
pub struct LaunchReport {
    /// `(rank, exit status)` for each spawned locality.
    pub statuses: Vec<(u32, std::process::ExitStatus)>,
}

impl LaunchReport {
    /// Whether every locality exited cleanly.
    pub fn success(&self) -> bool {
        self.statuses.iter().all(|(_, st)| st.success())
    }
}

/// Which role this process plays after [`bootstrap`].
pub enum Role {
    /// The parent: children were spawned, ran, and exited.
    Launcher(LaunchReport),
    /// A locality with an established mesh; run the computation.
    Rank(Arc<SocketTransport>),
}

fn err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Read exactly one frame from a blocking stream (bounded by its read
/// timeout).
fn read_frame_blocking(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> io::Result<Frame> {
    loop {
        if let Some(frame) = decoder
            .next_frame()
            .map_err(|e| err(format!("rendezvous stream corrupt: {e}")))?
        {
            return Ok(frame);
        }
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(err("peer hung up during rendezvous".into()));
        }
        decoder.push(&buf[..n]);
    }
}

/// A [`FrameKind::Hello`] body: `rank u32 | listen_port u16`.
pub fn hello_body(rank: u32, port: u16) -> Vec<u8> {
    write_body(6, |w| {
        w.u32(rank).u16(port);
    })
}

/// Read a [`FrameKind::Hello`] frame's `(rank, listen port)`.
pub fn parse_hello(frame: &Frame) -> io::Result<(u32, u16)> {
    if frame.kind != FrameKind::Hello {
        return Err(err(format!("expected HELLO, got {:?}", frame.kind)));
    }
    read_body(&frame.body, |c| Ok((c.u32()?, c.u16()?)))
        .map_err(|e: BodyError| err(format!("bad HELLO: {e:?}")))
}

/// A [`FrameKind::PortMap`] body: `count u32 | port u16 × count`.
pub fn port_map_body(ports: &[u16]) -> Vec<u8> {
    write_body(4 + 2 * ports.len(), |w| {
        w.u32(ports.len() as u32);
        for &p in ports {
            w.u16(p);
        }
    })
}

/// Read a [`FrameKind::PortMap`] frame's mesh ports, one per rank.
pub fn parse_port_map(frame: &Frame) -> io::Result<Vec<u16>> {
    if frame.kind != FrameKind::PortMap {
        return Err(err(format!("expected PORTMAP, got {:?}", frame.kind)));
    }
    read_body(&frame.body, |c| {
        let count = c.u32()? as usize;
        c.records(count, u16::MAX as usize + 1, 2, BodyCursor::u16)
    })
    .map_err(|e| err(format!("bad PORTMAP: {e:?}")))
}

/// Spawn `ranks` copies of the current binary and broker their rendezvous.
fn run_launcher(ranks: u32, deadline: Instant) -> io::Result<LaunchReport> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let exe = std::env::current_exe()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut children: Vec<(u32, Child)> = Vec::with_capacity(ranks as usize);
    for rank in 0..ranks {
        let child = Command::new(&exe)
            .args(&args)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_RANKS, ranks.to_string())
            .env(ENV_RENDEZVOUS, addr.to_string())
            .spawn()?;
        children.push((rank, child));
    }
    let kill_all = |children: &mut Vec<(u32, Child)>| {
        for (_, c) in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };
    // Collect one HELLO per rank, then answer each with the full PORTMAP.
    let mut conns: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
    let mut ports = vec![0u16; ranks as usize];
    let mut seen = 0;
    while seen < ranks {
        if Instant::now() > deadline {
            kill_all(&mut children);
            return Err(err(format!("rendezvous timed out ({seen}/{ranks} ranks)")));
        }
        let mut died = None;
        for (rank, child) in children.iter_mut() {
            if let Some(st) = child.try_wait()? {
                died = Some((*rank, st));
                break;
            }
        }
        if let Some((rank, st)) = died {
            kill_all(&mut children);
            return Err(err(format!("rank {rank} died during rendezvous: {st}")));
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_read_timeout(Some(net_timeout()))?;
                let mut dec = FrameDecoder::new();
                let frame = read_frame_blocking(&mut stream, &mut dec)?;
                let (rank, port) = parse_hello(&frame)?;
                if rank >= ranks || conns[rank as usize].is_some() {
                    kill_all(&mut children);
                    return Err(err(format!("bogus HELLO from rank {rank}")));
                }
                ports[rank as usize] = port;
                conns[rank as usize] = Some(stream);
                seen += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        }
    }
    let portmap = encode_frame(FrameKind::PortMap, 0, &port_map_body(&ports));
    for stream in conns.iter_mut().flatten() {
        stream.write_all(&portmap)?;
    }
    drop(conns);
    // Wait for every child, with a hard deadline.
    let mut statuses = Vec::with_capacity(ranks as usize);
    for (rank, mut child) in children {
        loop {
            if let Some(st) = child.try_wait()? {
                statuses.push((rank, st));
                break;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let st = child.wait()?;
                statuses.push((rank, st));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(LaunchReport { statuses })
}

/// Rendezvous with the launcher and build the full TCP mesh.
fn run_rank(rank: u32, ranks: u32, cfg: CoalesceConfig) -> io::Result<Arc<SocketTransport>> {
    let rendezvous = std::env::var(ENV_RENDEZVOUS)
        .map_err(|_| err(format!("{ENV_RENDEZVOUS} not set for rank {rank}")))?;
    let timeout = net_timeout();
    // Bind the mesh listener before announcing its port.
    let mesh = TcpListener::bind("127.0.0.1:0")?;
    let mesh_port = mesh.local_addr()?.port();
    let mut broker = TcpStream::connect(&rendezvous)?;
    broker.set_read_timeout(Some(timeout))?;
    broker.write_all(&encode_frame(
        FrameKind::Hello,
        rank as u16,
        &hello_body(rank, mesh_port),
    ))?;
    let mut dec = FrameDecoder::new();
    let ports = parse_port_map(&read_frame_blocking(&mut broker, &mut dec)?)?;
    if ports.len() != ranks as usize {
        return Err(err("PORTMAP size mismatch".into()));
    }
    drop(broker);
    // Full mesh: dial every lower rank, accept every higher rank.
    let mut peers: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
    for lower in 0..rank {
        let mut stream = TcpStream::connect(("127.0.0.1", ports[lower as usize]))?;
        stream.write_all(&encode_frame(
            FrameKind::Hello,
            rank as u16,
            &hello_body(rank, 0),
        ))?;
        peers[lower as usize] = Some(stream);
    }
    for _ in rank + 1..ranks {
        let (mut stream, _) = mesh.accept()?;
        stream.set_read_timeout(Some(timeout))?;
        let mut dec = FrameDecoder::new();
        let frame = read_frame_blocking(&mut stream, &mut dec)?;
        let (peer_rank, _) = parse_hello(&frame)?;
        if peer_rank <= rank || peer_rank >= ranks || peers[peer_rank as usize].is_some() {
            return Err(err(format!("bogus mesh HELLO from rank {peer_rank}")));
        }
        if dec.pending_bytes() != 0 {
            return Err(err("unexpected data after mesh HELLO".into()));
        }
        stream.set_read_timeout(None)?;
        peers[peer_rank as usize] = Some(stream);
    }
    Ok(Arc::new(SocketTransport::new(
        rank, ranks, peers, cfg, timeout,
    )))
}

/// Become a launcher (spawning `ranks` copies of this binary) or, if this
/// process was spawned by one, rendezvous and return the connected
/// transport.  Requires `ranks >= 2`.
pub fn bootstrap(ranks: u32, cfg: CoalesceConfig) -> io::Result<Role> {
    assert!(
        ranks >= 2,
        "a multi-process run needs at least 2 localities"
    );
    match env_rank() {
        None => run_launcher(ranks, Instant::now() + net_timeout()).map(Role::Launcher),
        Some(rank) => {
            let world: u32 = std::env::var(ENV_RANKS)
                .map_err(|_| err(format!("{ENV_RANKS} not set")))?
                .parse()
                .map_err(|_| err(format!("{ENV_RANKS} unparsable")))?;
            if world != ranks {
                return Err(err(format!(
                    "launcher spawned {world} ranks but bootstrap asked for {ranks}"
                )));
            }
            if rank >= ranks {
                return Err(err(format!("rank {rank} out of range")));
            }
            run_rank(rank, ranks, cfg).map(Role::Rank)
        }
    }
}
