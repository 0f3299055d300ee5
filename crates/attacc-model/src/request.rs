//! Inference requests and their progress through Sum and Gen stages.

/// An inference request: an `l_in`-token prompt that will generate
/// `l_out` tokens (the last Gen stage emits the end-of-sequence token).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique request id.
    pub id: u64,
    /// Prompt length (`L_in`).
    pub l_in: u64,
    /// Number of output tokens to generate (`L_out`).
    pub l_out: u64,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    /// Panics if `l_in` or `l_out` is zero.
    #[must_use]
    pub fn new(id: u64, l_in: u64, l_out: u64) -> Request {
        assert!(l_in > 0, "l_in must be positive");
        assert!(l_out > 0, "l_out must be positive");
        Request { id, l_in, l_out }
    }

    /// Final context length when the request completes.
    #[must_use]
    pub const fn final_len(&self) -> u64 {
        self.l_in + self.l_out
    }
}

/// Where a request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SequenceStatus {
    /// Waiting to be admitted into a batch.
    Queued,
    /// The Sum (prefill) stage has not yet run.
    NeedsSum,
    /// Generating; the stored state tracks tokens produced so far.
    Generating,
    /// All `l_out` tokens produced.
    Finished,
}

/// Mutable progress state of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestState {
    /// The immutable request description.
    pub request: Request,
    /// Tokens generated so far (the Sum stage produces the first one).
    pub generated: u64,
    /// Lifecycle status.
    pub status: SequenceStatus,
}

impl RequestState {
    /// Admits a queued request (it now needs its Sum stage).
    #[must_use]
    pub const fn admitted(request: Request) -> RequestState {
        RequestState {
            request,
            generated: 0,
            status: SequenceStatus::NeedsSum,
        }
    }

    /// Current context length: prompt plus generated tokens.
    #[must_use]
    pub const fn context_len(&self) -> u64 {
        self.request.l_in + self.generated
    }

    /// Records the completion of one stage (Sum or Gen), which always
    /// produces one token. Returns the new status.
    ///
    /// # Panics
    /// Panics if called on a finished request.
    pub fn complete_stage(&mut self) -> SequenceStatus {
        match self.status {
            SequenceStatus::Queued => panic!("request not admitted"),
            SequenceStatus::Finished => panic!("request already finished"),
            SequenceStatus::NeedsSum | SequenceStatus::Generating => {
                self.generated += 1;
                self.status = if self.generated >= self.request.l_out {
                    SequenceStatus::Finished
                } else {
                    SequenceStatus::Generating
                };
                self.status
            }
        }
    }

    /// Remaining Gen stages (the Sum stage, if pending, is not counted).
    #[must_use]
    pub const fn remaining_gen_stages(&self) -> u64 {
        let produced = self.generated;
        let needed = self.request.l_out;
        let rem = needed - produced;
        match self.status {
            SequenceStatus::NeedsSum => rem - 1, // Sum produces one token
            _ => rem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_produces_l_out_tokens() {
        let mut s = RequestState::admitted(Request::new(0, 8, 3));
        assert_eq!(s.status, SequenceStatus::NeedsSum);
        assert_eq!(s.remaining_gen_stages(), 2);
        assert_eq!(s.complete_stage(), SequenceStatus::Generating); // Sum
        assert_eq!(s.context_len(), 9);
        assert_eq!(s.complete_stage(), SequenceStatus::Generating);
        assert_eq!(s.complete_stage(), SequenceStatus::Finished);
        assert_eq!(s.context_len(), 11);
        assert_eq!(s.context_len(), s.request.final_len());
    }

    #[test]
    fn single_token_request_finishes_at_sum() {
        let mut s = RequestState::admitted(Request::new(1, 4, 1));
        assert_eq!(s.remaining_gen_stages(), 0);
        assert_eq!(s.complete_stage(), SequenceStatus::Finished);
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn finished_request_rejects_stage() {
        let mut s = RequestState::admitted(Request::new(1, 4, 1));
        let _ = s.complete_stage();
        let _ = s.complete_stage();
    }

    #[test]
    #[should_panic(expected = "l_out must be positive")]
    fn zero_output_rejected() {
        let _ = Request::new(0, 4, 0);
    }
}
