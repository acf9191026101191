//! The same BFT-CUPFT nodes, on real OS threads with real (randomized)
//! delivery delays — demonstrating that the protocol stack is not a
//! simulator artifact.
//!
//! ```sh
//! cargo run --example threaded_cluster
//! ```

use std::collections::BTreeSet;
use std::time::Duration;

use bft_cupft::committee::Value;
use bft_cupft::core::{Node, NodeConfig, NodeMsg, ProtocolMode};
use bft_cupft::detector::SystemSetup;
use bft_cupft::graph::fig4b;
use bft_cupft::net::threaded::{run_threaded, Board, ThreadedConfig};
use bft_cupft::net::Actor;

fn main() {
    let fig = fig4b();
    let setup = SystemSetup::new(fig.graph());
    let board: Board<Vec<u8>> = Board::new();

    let mut actors: Vec<Box<dyn Actor<NodeMsg>>> = Vec::new();
    for v in fig.graph().vertices() {
        let config = NodeConfig {
            mode: ProtocolMode::UnknownThreshold,
            discovery_period: 15, // milliseconds on the threaded runtime
            replica: bft_cupft::committee::ReplicaConfig { timeout_base: 500 },
            crash_at: None,
            ..NodeConfig::default()
        };
        let value = Value::from(format!("proposal-from-{}", v.raw()).into_bytes());
        let node = Node::from_setup(&setup, v, value, config)
            .expect("vertex registered")
            .with_board(board.clone());
        actors.push(Box::new(node));
    }

    println!(
        "launching {} nodes on OS threads (Fig. 4b graph, unknown f)...",
        actors.len()
    );
    let expected = actors.len();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let board = board.clone();
        let stop = stop.clone();
        std::thread::spawn(move || loop {
            if board.len() >= expected {
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        });
    }
    let report = run_threaded(
        actors,
        ThreadedConfig {
            max_delay: Duration::from_millis(8),
            wall_timeout: Duration::from_secs(30),
            seed: 99,
            stop: Some(stop.clone()),
        },
    );

    let decisions = board.snapshot();
    println!(
        "{} of {} nodes decided within {:?}; {} messages routed",
        decisions.len(),
        report.actors.len(),
        report.elapsed,
        report.stats.messages_sent
    );
    let distinct: BTreeSet<&Vec<u8>> = decisions.values().collect();
    for (id, v) in &decisions {
        println!("  {id} decided {:?}", String::from_utf8_lossy(v));
    }
    assert_eq!(distinct.len(), 1, "agreement must hold on real threads");
    assert_eq!(
        decisions.len(),
        report.actors.len(),
        "every node must decide"
    );
    println!("agreement on real threads: ✓");
}
