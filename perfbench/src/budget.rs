//! How long a phase measures.

use std::time::{Duration, Instant};

/// A phase runs until its time is up *and* it has its minimum number of
/// operations (so every reported percentile keeps ten samples beyond it),
/// but never past the hard deadline that keeps a run inside its limit.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    until: Option<Instant>,
    min_ops: usize,
    deadline: Instant,
}

impl Budget {
    /// Measure for `secs`, and for at least `min_ops` operations.
    pub fn timed(secs: Duration, min_ops: usize, deadline: Instant) -> Budget {
        Budget {
            until: Some(Instant::now() + secs),
            min_ops,
            deadline,
        }
    }

    /// Exactly `ops` operations (deadline permitting): the traced run and
    /// the side phases, whose counters must repeat exactly.
    pub fn count(ops: usize, deadline: Instant) -> Budget {
        Budget {
            until: None,
            min_ops: ops,
            deadline,
        }
    }

    /// Whether operation number `done` (0-based) should still run.
    pub fn more(&self, done: usize) -> bool {
        let now = Instant::now();
        if now >= self.deadline {
            return false;
        }
        done < self.min_ops || self.until.is_some_and(|u| now < u)
    }

    /// This budget's share for one of `clients` concurrent clients.
    pub fn per_client(&self, clients: usize) -> Budget {
        Budget {
            min_ops: self.min_ops.div_ceil(clients),
            ..*self
        }
    }
}
