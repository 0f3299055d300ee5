//! Functional trace replay through the [`AttAccController`].
//!
//! Replay is a thin loop: each instruction executes in order against
//! the controller's real dataflow, `read` outputs are collected in
//! trace order, and any failure is wrapped with
//! [`InstError::at_index`] so it names the offending trace line.

use crate::Trace;
use attacc_pim::{AttAccController, AttInst, InstError};

/// What a functional replay produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayOutcome {
    /// Context vectors returned by `read` instructions, in trace order,
    /// keyed by `(request, head)`.
    pub outputs: Vec<((u64, u32), Vec<f32>)>,
    /// Instructions executed.
    pub executed: usize,
}

/// Replays a trace through the functional controller.
///
/// # Errors
/// Returns the controller's error wrapped with the zero-based index of
/// the instruction that raised it ([`InstError::Trace`]).
pub fn replay(ctl: &mut AttAccController, trace: &Trace) -> Result<ReplayOutcome, InstError> {
    let mut outcome = ReplayOutcome::default();
    for (index, inst) in trace.insts.iter().enumerate() {
        let key = match *inst {
            AttInst::ReadOutput { request, head } => Some((request, head)),
            _ => None,
        };
        let result = ctl.execute(inst.clone()).map_err(|e| e.at_index(index))?;
        if let (Some(key), Some(out)) = (key, result) {
            outcome.outputs.push((key, out));
        }
        outcome.executed += 1;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, DecodeSchedule, KvPolicy, TracePayload};
    use crate::{execute_timing, TimingConfig};
    use attacc_model::{DataType, ModelConfig};
    use attacc_pim::gemv_unit::Precision;
    use attacc_hbm::StackGeometry;

    fn tiny() -> ModelConfig {
        ModelConfig::builder("tiny")
            .decoders(2)
            .embedding(16)
            .heads(2)
            .feedforward(32)
            .vocab(100)
            .max_seq_len(128)
            .dtype(DataType::Fp16)
            .build()
            .unwrap()
    }

    fn controller() -> AttAccController {
        let geom = StackGeometry {
            pseudo_channels: 4,
            bank_groups_per_rank: 2,
            ranks: 2,
            banks_per_group: 2,
            ..StackGeometry::hbm3_8hi()
        };
        AttAccController::new(&geom, 2, Precision::Exact)
    }

    #[test]
    fn compiled_trace_replays_cleanly() {
        let sched = DecodeSchedule::uniform(
            2,
            3,
            2,
            KvPolicy::Full,
            TracePayload::Functional { seed: 11 },
        );
        let trace = compile(&tiny(), &sched);
        let mut ctl = controller();
        let outcome = replay(&mut ctl, &trace).unwrap();
        assert_eq!(outcome.executed, trace.len());
        // 2 requests × 2 heads × 2 steps.
        assert_eq!(outcome.outputs.len(), 8);
        for ((_, _), out) in &outcome.outputs {
            assert_eq!(out.len(), 8); // d_head = 16/2
            assert!(out.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn replay_error_names_the_instruction() {
        let trace = Trace {
            insts: vec![
                AttInst::SetModel { n_head: 1, d_head: 4, max_l: 8 },
                AttInst::UpdateRequest { request: 0, remove: false },
                AttInst::RunAttention { request: 0, head: 0 },
            ],
        };
        let err = replay(&mut controller(), &trace).unwrap_err();
        assert_eq!(
            err,
            InstError::Trace { index: 2, cause: Box::new(InstError::EmptyKv) }
        );
    }

    /// Each malformed trace is refused at the offending instruction,
    /// which leaves the controller as it was. Timing replay refuses it
    /// the same way, except for the device's KV capacity, which it does
    /// not model.
    #[test]
    fn malformed_traces_are_errors_at_the_offending_instruction() {
        let model = "set_model n_head=1 d_head=4 max_l=2\nadmit req=0\n";
        let append = "append req=0 head=0 k=1,1,1,1 v=1,1,1,1\n";
        let cases = [
            ("set_model n_head=1 d_head=0 max_l=4\n".to_string(), 0, InstError::InvalidModel),
            ("set_model n_head=1 d_head=4 max_l=0\n".to_string(), 0, InstError::InvalidModel),
            (format!("{model}declare_kv req=0 head=0 tokens=3\n"), 2, InstError::CapacityExceeded),
            // An eviction returns no room: the third append is a third token.
            (
                format!("{model}{append}{append}evict_kv req=0 head=0 keep_last=1\n{append}"),
                5,
                InstError::CapacityExceeded,
            ),
            (
                "set_model n_head=1 d_head=4 max_l=4\nadmit req=0\nadmit req=0\n".to_string(),
                2,
                InstError::AlreadyResident(0),
            ),
            // 512 B of K and V a token times 2^62 - 1 tokens overflows
            // `u64`: no request fits the device.
            (
                "set_model n_head=1 d_head=128 max_l=4611686018427387903\nadmit req=0\n"
                    .to_string(),
                1,
                InstError::CapacityExceeded,
            ),
        ];
        for (text, index, cause) in cases {
            let trace = Trace::parse(&text).unwrap();
            let err = replay(&mut controller(), &trace).unwrap_err();
            let timing = execute_timing(&TimingConfig::paper(), &trace);
            if cause == InstError::CapacityExceeded && trace.insts[index].opcode() == "admit" {
                assert!(timing.is_ok(), "{text}");
            } else {
                assert_eq!(timing.unwrap_err(), err, "{text}");
            }
            assert_eq!(err, InstError::Trace { index, cause: Box::new(cause) }, "{text}");
            let mut ctl = controller();
            replay(&mut ctl, &Trace { insts: trace.insts[..index].to_vec() }).unwrap();
            let before = format!("{ctl:?}");
            assert!(ctl.execute(trace.insts[index].clone()).is_err());
            assert_eq!(format!("{ctl:?}"), before, "{text}");
        }
    }

    #[test]
    fn sliding_window_and_paged_traces_replay() {
        for policy in [
            KvPolicy::SlidingWindow { window: 3 },
            KvPolicy::Paged { tokens_per_page: 2, recent_pages: 1 },
        ] {
            let sched =
                DecodeSchedule::uniform(1, 5, 3, policy, TracePayload::Functional { seed: 3 });
            let trace = compile(&tiny(), &sched);
            let outcome = replay(&mut controller(), &trace).unwrap();
            assert_eq!(outcome.outputs.len(), 2 * 3, "{policy:?}");
        }
    }
}
