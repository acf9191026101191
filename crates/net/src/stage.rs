//! The stateless/stateful stage split: pre-delivery message processing.
//!
//! A [`Preflight`] is the *stateless* half of a pipeline (the
//! `StatelessContext` of oskr-style replica architectures): pure,
//! side-effect-free-with-respect-to-the-actor work — signature
//! verification, fingerprint computation, bundle unpacking — that can run
//! anywhere between a message leaving its sender and reaching its
//! receiver. All observable effects must flow through *shared memo
//! structures* (e.g. a concurrent verification-verdict pool) that the
//! stateful actor would have populated itself on the serial path.
//!
//! That contract is what makes the split runtime-agnostic:
//!
//! * the **wall-clock runtimes** (threaded and socket) run the preflight
//!   inline on the sending actor's thread, ahead of the send gate, so a
//!   sender pays for the stateless work of what it sends and the shared
//!   memo is warm before the receiver absorbs the message;
//! * the **simulator** invokes the preflight *synchronously* at the
//!   delivery event, immediately before `Actor::on_message`. No events
//!   are injected and no ordering changes, so traces and fingerprints are
//!   byte-identical with and without a preflight installed — the
//!   determinism requirement for shrinker and replay artifacts.
//!
//! Because a preflight only warms memos the actor consults anyway,
//! skipping it (or racing it with delivery) can never change a protocol
//! decision — only who pays for the stateless work. That is exactly the
//! oracle reading of certificate verification in Algorithm 1: the
//! verdict of a record is a pure function of its bytes, independent of
//! when or where it is computed.

use cupft_graph::ProcessId;

/// A stateless pre-delivery processing hook (see the [module docs](self)
/// for the contract).
///
/// `Send + Sync` because the wall-clock runtimes share one preflight
/// across every sending thread; implementations keep their state in
/// concurrent shared structures (or none at all).
pub trait Preflight<M>: Send + Sync {
    /// Processes `msg` before it is delivered to `to`.
    ///
    /// Must be idempotent and must not assume it runs at most once per
    /// message — a runtime is free to invoke it zero, one, or many times
    /// per delivery on any thread.
    fn preflight(&self, from: ProcessId, to: ProcessId, msg: &M);

    /// Whether this preflight has any work to do for `msg`. Must be a
    /// pure function of the message.
    ///
    /// Runtimes skip the preflight for messages it does not want, so a
    /// chatty protocol only pays the stage call for the messages that
    /// carry stage work (e.g. `SETPDS` certificate bundles, not `GETPDS`
    /// polls or consensus votes). Skipping is always safe: a preflight
    /// may run zero times per message by contract. The default wants
    /// everything.
    fn wants(&self, msg: &M) -> bool {
        let _ = msg;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Counter(Arc<AtomicU64>);
    impl Preflight<u32> for Counter {
        fn preflight(&self, _from: ProcessId, _to: ProcessId, msg: &u32) {
            self.0.fetch_add(u64::from(*msg), Ordering::Relaxed);
        }
    }

    #[test]
    fn preflight_is_object_safe_and_shareable() {
        let seen = Arc::new(AtomicU64::new(0));
        let stage: Arc<dyn Preflight<u32>> = Arc::new(Counter(seen.clone()));
        let clone = stage.clone();
        clone.preflight(ProcessId::new(1), ProcessId::new(2), &5);
        stage.preflight(ProcessId::new(2), ProcessId::new(1), &7);
        assert_eq!(seen.load(Ordering::Relaxed), 12);
    }
}
