//! A real three-process FarGo cluster over TCP loopback.
//!
//! Every other example runs its Cores in one process over the simulated
//! network. This one exercises the TCP backend
//! (`CoreBuilder::tcp_transport`) end to end: the parent process picks
//! three loopback ports, re-executes itself three times
//! (`--node 0..2`), and each child binds its port and hosts one Core
//! whose envelopes travel over real sockets with length-prefixed
//! `fargo-wire` framing. Node 0 then runs a small script — instantiate
//! on node 1, invoke, migrate to node 2, invoke again — proving that
//! naming, invocation, and the two-phase move protocol are transport
//! agnostic.
//!
//! Orchestration protocol (parent ⇄ children, over stdin/stdout):
//!
//! * child prints `ready` once its Core is listening;
//! * parent sends `run` to node 0, which executes the script and prints
//!   `script ok`;
//! * parent sends `quit` to everyone; children stop their Cores and exit
//!   cleanly.
//!
//! Run with: `cargo run --example tcp_cluster`

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use fargo::prelude::*;

const NODES: usize = 3;

define_complet! {
    /// The migrating servant: a counter that also reports where it runs.
    pub complet Roamer {
        state {
            n: i64 = 0,
        }
        fn add(&mut self, _ctx, args) {
            self.n += args.first().and_then(Value::as_i64).unwrap_or(1);
            Ok(Value::I64(self.n))
        }
        fn whereami(&mut self, ctx, _args) {
            Ok(Value::from(ctx.core().name()))
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--node") {
        Some(i) => {
            let index: usize = args[i + 1].parse()?;
            let peers: Vec<String> = args[args.iter().position(|a| a == "--peers").unwrap() + 1]
                .split(',')
                .map(str::to_owned)
                .collect();
            child(index, peers)
        }
        None => parent(),
    }
}

/// Picks a free loopback port by binding ephemeral and letting go.
///
/// The listener is dropped before the child rebinds the port — a
/// textbook TOCTOU, but fine for an example on a quiet loopback.
fn free_port() -> std::io::Result<String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0")?;
    Ok(l.local_addr()?.to_string())
}

fn parent() -> Result<(), Box<dyn std::error::Error>> {
    let peers: Vec<String> = (0..NODES).map(|_| free_port()).collect::<Result<_, _>>()?;
    let exe = std::env::current_exe()?;

    let mut children: Vec<Child> = Vec::new();
    for i in 0..NODES {
        children.push(
            Command::new(&exe)
                .args(["--node", &i.to_string(), "--peers", &peers.join(",")])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()?,
        );
    }

    // One line-buffered reader per child; wait until every Core listens.
    let mut readers: Vec<BufReader<_>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("child stdout")))
        .collect();
    for (i, r) in readers.iter_mut().enumerate() {
        expect_line(r, "ready", &format!("node {i} startup"))?;
        println!("parent: node {i} ready on {}", peers[i]);
    }

    // Drive the script from node 0 and wait for its verdict.
    send_line(&mut children[0], "run")?;
    expect_line(&mut readers[0], "script ok", "node 0 script")?;
    println!("parent: invoke + move script passed on the wire");

    // Clean shutdown, strictly checked.
    for c in children.iter_mut() {
        send_line(c, "quit")?;
    }
    for (i, mut c) in children.into_iter().enumerate() {
        let status = c.wait()?;
        if !status.success() {
            return Err(format!("node {i} exited with {status}").into());
        }
    }
    println!("TCP cluster OK");
    Ok(())
}

fn send_line(child: &mut Child, line: &str) -> std::io::Result<()> {
    let stdin = child.stdin.as_mut().expect("child stdin");
    writeln!(stdin, "{line}")?;
    stdin.flush()
}

fn expect_line(
    reader: &mut impl BufRead,
    want: &str,
    what: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(format!("{what}: child closed stdout before `{want}`").into());
        }
        if line.trim() == want {
            return Ok(());
        }
        // Anything else is child-side logging; pass it through.
        print!("{line}");
    }
}

fn child(index: usize, peers: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    // The local simnet network carries no payloads in TCP mode — it is
    // the cluster directory (name → node index) and the fault-injection
    // control plane. Every process must register the same names in the
    // same order so the indices agree across the cluster.
    let net = Network::new(NetworkConfig {
        default_link: Some(LinkConfig::instant()),
        ..NetworkConfig::default()
    });
    let registry = CompletRegistry::new();
    Roamer::register(&registry);

    let mut core = None;
    for j in 0..peers.len() {
        let name = format!("node{j}");
        if j == index {
            core = Some(
                Core::builder(&net, &name)
                    .registry(&registry)
                    .tcp_transport(std::net::TcpListener::bind(&peers[j])?, peers.clone())
                    .spawn()?,
            );
        } else {
            net.add_node(&name)?;
        }
    }
    let core = core.expect("own node spawned");
    println!("ready");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line?.trim() {
            "run" => {
                run_script(&core)?;
                println!("script ok");
            }
            "quit" => break,
            _ => {}
        }
    }
    core.stop();
    Ok(())
}

/// The cross-process workload: create on node 1, invoke, migrate to
/// node 2, invoke again — every hop over real sockets.
fn run_script(core: &Core) -> Result<(), Box<dyn std::error::Error>> {
    let roamer = core.new_complet_at("node1", "Roamer", &[])?;
    if roamer.call("add", &[Value::I64(5)])? != Value::I64(5) {
        return Err("add on node1 returned the wrong count".into());
    }
    if roamer.call("whereami", &[])? != Value::from("node1") {
        return Err("complet did not land on node1".into());
    }

    roamer.move_to("node2")?;
    if roamer.call("whereami", &[])? != Value::from("node2") {
        return Err("complet did not migrate to node2".into());
    }
    // State survived the move and the stub still routes.
    if roamer.call("add", &[Value::I64(2)])? != Value::I64(7) {
        return Err("state lost in migration".into());
    }
    Ok(())
}
