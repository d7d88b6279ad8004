//! Benchmark net constructors shared by the `engine` bench target and the
//! `perf_baseline` binary, so both measure exactly the same models.

use wsnem_petri::{NetBuilder, PetriNet};

/// An exp source feeding a `k`-stage chain of immediate transitions (each
/// stage at its own priority) into a bounded queue with an exp server —
/// every arrival resolves `k` vanishing markings.
pub fn vanishing_pipeline_net(k: u8) -> PetriNet {
    let mut b = NetBuilder::new();
    let first = b.place("V0", 0);
    let queue = b.place("Q", 0);
    let src = b.exponential("src", 1.0);
    b.output_arc(src, first, 1);
    b.inhibitor_arc(queue, src, 6);
    let mut prev = first;
    for i in 1..=k {
        let next = if i == k {
            queue
        } else {
            b.place(format!("V{i}"), 0)
        };
        let t = b.immediate(format!("t{i}"), k - i + 1, 1.0);
        b.input_arc(prev, t, 1);
        b.output_arc(t, next, 1);
        prev = next;
    }
    let serve = b.exponential("serve", 2.0);
    b.input_arc(queue, serve, 1);
    b.build().expect("pipeline net builds")
}

/// A closed ring of `n` relay stations — place `Q_i` feeds an exponential
/// hop transition into `Q_{i+1 mod n}` — with one token in every place, so
/// all `n` timers race concurrently at every instant.
///
/// This is the many-timed-transition stress shape: a scan-driven engine
/// pays O(n) per event to find the earliest timer (O(n²) per unit of model
/// time), an event-driven engine O(log n).
pub fn relay_ring_net(n: usize) -> PetriNet {
    let mut b = NetBuilder::new();
    let places: Vec<_> = (0..n).map(|i| b.place(format!("Q{i}"), 1)).collect();
    for i in 0..n {
        let t = b.exponential(format!("hop{i}"), 1.0);
        b.input_arc(places[i], t, 1);
        b.output_arc(t, places[(i + 1) % n], 1);
    }
    b.build().expect("ring builds")
}

/// An open arrival stream that never leaves: an exponential source (rate
/// 10) into `Arrived`, and an immediate that moves each arrival on to a
/// `Served` sink. Every tangible marking is new, so a memo of visited
/// markings only costs here; this is the worst case for it.
pub fn open_arrivals_net() -> PetriNet {
    let mut b = NetBuilder::new();
    let arrived = b.place("Arrived", 0);
    let served = b.place("Served", 0);
    let src = b.exponential("src", 10.0);
    b.output_arc(src, arrived, 1);
    let take = b.immediate("take", 1, 1.0);
    b.input_arc(arrived, take, 1);
    b.output_arc(take, served, 1);
    b.build().expect("open arrivals net builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_net_shape() {
        let net = vanishing_pipeline_net(8);
        // src + serve + 8 immediates.
        assert_eq!(net.n_transitions(), 10);
        assert!(net.find_transition("t8").is_some());
    }

    #[test]
    fn open_arrivals_net_shape() {
        let net = open_arrivals_net();
        assert_eq!(net.n_transitions(), 2);
        assert_eq!(net.initial_marking().as_slice(), &[0, 0]);
    }

    #[test]
    fn ring_net_shape() {
        let net = relay_ring_net(128);
        assert_eq!(net.n_transitions(), 128);
        assert_eq!(net.n_places(), 128);
        // One token everywhere: every hop is enabled in the initial marking.
        let m = net.initial_marking();
        assert!(net.transitions().all(|t| net.is_enabled(&m, t)));
    }
}
