//! Request/response vocabulary of the serving plane.

use milr_tensor::Tensor;

/// Monotone request identifier, assigned in submission order.
pub type RequestId = u64;

/// Why a request was completed without an output. A quarantine is not
/// a reason: work it voids goes back on the queue and runs again after
/// the heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was full at arrival.
    QueueFull,
    /// The service shut down before the request could be certified.
    Shutdown,
}

impl RejectReason {
    /// Stable lowercase name (reports, error messages).
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::Shutdown => "shutdown",
        }
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestStatus {
    /// Served and certified: the output was computed on weights a
    /// bracketing scrub cycle verified clean (or freshly recovered).
    Completed(Tensor),
    /// Completed without an output.
    Rejected(RejectReason),
}

/// One resolved request, as reported by the simulation and the live
/// server.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Submission-order id.
    pub id: RequestId,
    /// The request input (per-image shape, no batch dimension).
    pub input: Tensor,
    /// Terminal state.
    pub status: RequestStatus,
    /// Arrival stamp, nanoseconds on the service clock.
    pub arrival_ns: u64,
    /// Resolution stamp, nanoseconds on the service clock.
    pub resolved_ns: u64,
}

impl RequestOutcome {
    /// Arrival-to-resolution latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.resolved_ns.saturating_sub(self.arrival_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(RejectReason::QueueFull.name(), "queue-full");
        assert_eq!(RejectReason::Shutdown.name(), "shutdown");
    }

    #[test]
    fn latency_saturates() {
        let o = RequestOutcome {
            id: 0,
            input: Tensor::zeros(&[1]),
            status: RequestStatus::Rejected(RejectReason::Shutdown),
            arrival_ns: 10,
            resolved_ns: 4,
        };
        assert_eq!(o.latency_ns(), 0);
    }
}
