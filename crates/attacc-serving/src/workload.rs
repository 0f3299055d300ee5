//! Request-population generators.

use attacc_model::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A population of inference requests to serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    requests: Vec<Request>,
}

impl Workload {
    /// `n` identical requests with the given prompt and output lengths —
    /// the paper's evaluation shape (e.g. 10,000 requests at
    /// `L_in = L_out = 2048`).
    ///
    /// # Panics
    /// Panics if any argument is zero.
    #[must_use]
    pub fn fixed(n: u64, l_in: u64, l_out: u64) -> Workload {
        assert!(n > 0, "workload must contain requests");
        Workload {
            requests: (0..n).map(|id| Request::new(id, l_in, l_out)).collect(),
        }
    }

    /// `n` requests with output lengths drawn uniformly from
    /// `l_out_range`, deterministic under `seed`. Models mixed-length
    /// serving where iteration-level scheduling shines.
    ///
    /// # Panics
    /// Panics if the range is empty or `n` is zero.
    #[must_use]
    pub fn uniform_random(n: u64, l_in: u64, l_out_range: (u64, u64), seed: u64) -> Workload {
        assert!(n > 0, "workload must contain requests");
        assert!(
            l_out_range.0 >= 1 && l_out_range.0 <= l_out_range.1,
            "invalid output-length range"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        Workload {
            requests: (0..n)
                .map(|id| Request::new(id, l_in, rng.gen_range(l_out_range.0..=l_out_range.1)))
                .collect(),
        }
    }

    /// The requests in arrival order.
    #[must_use]
    pub fn requests(&self) -> Vec<Request> {
        self.requests.clone()
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when empty (never true for constructed workloads).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total output tokens the population will generate.
    #[must_use]
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.l_out).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_workload_shape() {
        let w = Workload::fixed(10, 128, 32);
        assert_eq!(w.len(), 10);
        assert_eq!(w.total_output_tokens(), 320);
        assert!(w.requests().iter().all(|r| r.l_in == 128 && r.l_out == 32));
        assert!(!w.is_empty());
    }

    #[test]
    fn random_workload_is_deterministic() {
        let a = Workload::uniform_random(50, 64, (1, 100), 7);
        let b = Workload::uniform_random(50, 64, (1, 100), 7);
        assert_eq!(a, b);
        let c = Workload::uniform_random(50, 64, (1, 100), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_workload_respects_range() {
        let w = Workload::uniform_random(200, 64, (5, 9), 3);
        assert!(w.requests().iter().all(|r| (5..=9).contains(&r.l_out)));
    }

    #[test]
    #[should_panic(expected = "must contain requests")]
    fn empty_workload_rejected() {
        let _ = Workload::fixed(0, 1, 1);
    }
}
