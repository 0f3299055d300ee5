//! The AttAcc controller: config memory, request/head state, and the
//! functional execution path (§5.1–§5.2).
//!
//! The controller executes [`AttInst`] instructions against real data: KV
//! vectors are appended per head (optionally rounded to FP16 as the HBM
//! cells would hold them), `RunAttention` drives score → softmax → context
//! through the §4.2 hierarchical mapping, and `ReadOutput` returns the
//! context vector. Property tests show the result matches a reference
//! attention implementation for arbitrary shapes. Admission follows
//! §3.2's one KV-capacity rule, [`KvCacheSpec::max_batch`] over every
//! stack's capacity with each request sized at `max_l`.

use crate::accumulator::Accumulator;
use crate::gemv_unit::{GemvUnit, Precision};
use crate::isa::{AttInst, InstError};
use crate::mapping::{hierarchical_gemv, MappingPolicy};
use crate::numeric::{f16_round, Matrix};
use crate::softmax_unit::SoftmaxUnit;
use attacc_hbm::StackGeometry;
use attacc_model::KvCacheSpec;
use std::collections::{BTreeSet, HashMap};

/// Contents of the controller's config memory (§5.1): model geometry plus
/// per-request context lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigMemory {
    /// Query heads per request.
    pub n_head: u32,
    /// Per-head dimension.
    pub d_head: usize,
    /// Tokens a head may receive over its life, evictions included: an
    /// eviction frees no room for later appends. Admission sizes every
    /// resident request at this length.
    pub max_l: u64,
    /// Context length of each resident request.
    pub request_len: HashMap<u64, u64>,
}

#[derive(Debug, Clone, Default)]
struct HeadStore {
    /// Key vectors, one per token (each `d_head` long). Kᵀ column j is
    /// `keys[j]`.
    keys: Vec<Vec<f32>>,
    /// Value vectors, one per token.
    values: Vec<Vec<f32>>,
    q: Option<Vec<f32>>,
    out: Option<Vec<f32>>,
    /// Tokens appended or declared over the head's life; bounded by
    /// [`ConfigMemory::max_l`].
    received: u64,
}

/// The functional AttAcc controller.
#[derive(Debug, Clone)]
pub struct AttAccController {
    config: Option<ConfigMemory>,
    heads: HashMap<(u64, u32), HeadStore>,
    score_policy: MappingPolicy,
    context_policy: MappingPolicy,
    gemv: GemvUnit,
    accum: Accumulator,
    softmax: SoftmaxUnit,
    /// KV bytes the device holds: every stack's capacity.
    kv_capacity_bytes: u64,
    /// Requests that may be resident at once under the current model
    /// (§3.2's rule, [`KvCacheSpec::max_batch`]).
    max_resident: u64,
    /// `Some(tokens_per_page)` once `ConfigPages` enables paged KV.
    tokens_per_page: Option<u64>,
    /// Pages each head currently streams from (paged mode only). A
    /// `BTreeSet` keeps iteration deterministic.
    mapped_pages: HashMap<(u64, u32), BTreeSet<u64>>,
}

impl AttAccController {
    /// A controller over `n_stacks` stacks with the paper's mapping
    /// policies on `geom`, using the given datapath precision.
    ///
    /// `n_stacks` only sets the KV capacity admission checks,
    /// `n_stacks × geom.capacity_bytes`: the controller records no
    /// head-to-stack placement.
    #[must_use]
    pub fn new(geom: &StackGeometry, n_stacks: usize, precision: Precision) -> AttAccController {
        let gemv = GemvUnit {
            lanes: 16,
            precision,
        };
        let accum = Accumulator { precision };
        AttAccController {
            config: None,
            heads: HashMap::new(),
            score_policy: MappingPolicy::paper_score(geom),
            context_policy: MappingPolicy::paper_context(geom),
            gemv,
            accum,
            softmax: SoftmaxUnit::new(),
            kv_capacity_bytes: geom.capacity_bytes.saturating_mul(n_stacks as u64),
            max_resident: 0,
            tokens_per_page: None,
            mapped_pages: HashMap::new(),
        }
    }

    /// Overrides the mapping policies (used by tests exploring the design
    /// space of §4.2).
    pub fn set_policies(&mut self, score: MappingPolicy, context: MappingPolicy) {
        self.score_policy = score;
        self.context_policy = context;
    }

    /// The config memory, if `SetModel` has run.
    #[must_use]
    pub fn config(&self) -> Option<&ConfigMemory> {
        self.config.as_ref()
    }

    fn cfg(&self) -> Result<&ConfigMemory, InstError> {
        self.config.as_ref().ok_or(InstError::NotConfigured)
    }

    fn check_vec(&self, v: &[f32]) -> Result<(), InstError> {
        let d = self.cfg()?.d_head;
        if v.len() != d {
            return Err(InstError::DimensionMismatch {
                expected: d,
                got: v.len(),
            });
        }
        Ok(())
    }

    /// The config memory, once `request` is resident and `head` is one of
    /// its heads.
    fn check_head(&self, request: u64, head: u32) -> Result<&ConfigMemory, InstError> {
        let cfg = self.cfg()?;
        if !cfg.request_len.contains_key(&request) {
            return Err(InstError::UnknownRequest(request));
        }
        if head >= cfg.n_head {
            return Err(InstError::UnknownHead(head));
        }
        Ok(cfg)
    }

    fn head_mut(&mut self, request: u64, head: u32) -> Result<&mut HeadStore, InstError> {
        self.check_head(request, head)?;
        Ok(self.heads.entry((request, head)).or_default())
    }

    /// The head's store, counting `tokens` more as received. A head that
    /// would pass [`ConfigMemory::max_l`] is refused before anything
    /// changes.
    fn receive(
        &mut self,
        request: u64,
        head: u32,
        tokens: u64,
    ) -> Result<&mut HeadStore, InstError> {
        let max_l = self.check_head(request, head)?.max_l;
        let received = self.heads.get(&(request, head)).map_or(0, |h| h.received);
        if tokens > max_l - received {
            return Err(InstError::CapacityExceeded);
        }
        let store = self.heads.entry((request, head)).or_default();
        store.received += tokens;
        Ok(store)
    }

    /// Executes one instruction. `ReadOutput` returns the context vector;
    /// every other instruction returns `None`.
    ///
    /// # Errors
    /// See [`InstError`] for each failure mode.
    pub fn execute(&mut self, inst: AttInst) -> Result<Option<Vec<f32>>, InstError> {
        match inst {
            AttInst::SetModel { n_head, d_head, max_l } => {
                if d_head == 0 || max_l == 0 {
                    return Err(InstError::InvalidModel);
                }
                let vector_bytes =
                    (d_head as u64).checked_mul(2).ok_or(InstError::InvalidModel)?;
                // K and V of every head at FP16. A request whose bytes
                // overflow `u64` fits no device.
                let bytes_per_token = (2 * u64::from(n_head)).checked_mul(vector_bytes);
                self.max_resident = bytes_per_token.map_or(0, |bytes_per_token| {
                    KvCacheSpec { bytes_per_token }.max_batch(self.kv_capacity_bytes, max_l)
                });
                self.config = Some(ConfigMemory {
                    n_head,
                    d_head,
                    max_l,
                    request_len: HashMap::new(),
                });
                self.heads.clear();
                self.tokens_per_page = None;
                self.mapped_pages.clear();
                Ok(None)
            }
            AttInst::UpdateRequest { request, remove } => {
                let max_resident = self.max_resident;
                let cfg = self.config.as_mut().ok_or(InstError::NotConfigured)?;
                if remove {
                    if cfg.request_len.remove(&request).is_none() {
                        return Err(InstError::UnknownRequest(request));
                    }
                    self.heads.retain(|&(r, _), _| r != request);
                    self.mapped_pages.retain(|&(r, _), _| r != request);
                } else {
                    if cfg.request_len.contains_key(&request) {
                        return Err(InstError::AlreadyResident(request));
                    }
                    // §3.2: every resident request may grow to `max_l`.
                    if cfg.request_len.len() as u64 >= max_resident {
                        return Err(InstError::CapacityExceeded);
                    }
                    cfg.request_len.insert(request, 0);
                }
                Ok(None)
            }
            AttInst::AppendKv { request, head, k, v } => {
                self.check_vec(&k)?;
                self.check_vec(&v)?;
                let precision = self.gemv.precision;
                let rounded = move |vec: Vec<f32>| -> Vec<f32> {
                    match precision {
                        Precision::Exact => vec,
                        Precision::Fp16 => vec.into_iter().map(f16_round).collect(),
                    }
                };
                let store = self.receive(request, head, 1)?;
                store.keys.push(rounded(*k));
                store.values.push(rounded(*v));
                // The config memory tracks L per request; heads advance in
                // lockstep, so update on head 0.
                if head == 0 {
                    let cfg = self.config.as_mut().expect("configured");
                    if let Some(l) = cfg.request_len.get_mut(&request) {
                        *l += 1;
                    }
                }
                Ok(None)
            }
            AttInst::LoadQ { request, head, q } => {
                self.check_vec(&q)?;
                let store = self.head_mut(request, head)?;
                store.q = Some(*q);
                Ok(None)
            }
            AttInst::DeclareKv { request, head, tokens } => {
                let d_head = self.cfg()?.d_head;
                let store = self.receive(request, head, tokens)?;
                for _ in 0..tokens {
                    store.keys.push(vec![0.0; d_head]);
                    store.values.push(vec![0.0; d_head]);
                }
                if head == 0 {
                    let cfg = self.config.as_mut().expect("configured");
                    if let Some(l) = cfg.request_len.get_mut(&request) {
                        *l += tokens;
                    }
                }
                Ok(None)
            }
            AttInst::RunAttention { request, head } => {
                self.run_attention_one(request, head)?;
                Ok(None)
            }
            AttInst::RunAttentionBatch { request, head0, n_heads } => {
                for head in head0..head0.saturating_add(n_heads) {
                    self.run_attention_one(request, head)?;
                }
                Ok(None)
            }
            AttInst::ReadOutput { request, head } => {
                let store = self.head_mut(request, head)?;
                store.out.take().map(Some).ok_or(InstError::NoOutput)
            }
            AttInst::EvictKv { request, head, keep_last } => {
                let store = self.head_mut(request, head)?;
                let l = store.keys.len() as u64;
                let evicted = l.saturating_sub(keep_last);
                if evicted > 0 {
                    store.keys.drain(..evicted as usize);
                    store.values.drain(..evicted as usize);
                }
                // Head 0 carries the bookkeeping, mirroring AppendKv.
                if head == 0 && evicted > 0 {
                    let cfg = self.config.as_mut().expect("configured");
                    if let Some(len) = cfg.request_len.get_mut(&request) {
                        *len -= evicted;
                    }
                }
                Ok(None)
            }
            AttInst::ConfigPages { tokens_per_page } => {
                self.cfg()?;
                self.tokens_per_page = Some(tokens_per_page.max(1));
                Ok(None)
            }
            AttInst::MapPage { request, head, page } => {
                if self.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured);
                }
                self.head_mut(request, head)?;
                self.mapped_pages.entry((request, head)).or_default().insert(page);
                Ok(None)
            }
            AttInst::UnmapPage { request, head, page } => {
                if self.tokens_per_page.is_none() {
                    return Err(InstError::PagingNotConfigured);
                }
                self.head_mut(request, head)?;
                let mapped = self
                    .mapped_pages
                    .get_mut(&(request, head))
                    .ok_or(InstError::PageNotMapped(page))?;
                if !mapped.remove(&page) {
                    return Err(InstError::PageNotMapped(page));
                }
                Ok(None)
            }
            AttInst::Barrier { .. } => Ok(None),
        }
    }

    /// Score → softmax → context for one head: the body of
    /// `RunAttention`, shared with `RunAttentionBatch`. In paged mode
    /// only tokens on mapped pages participate.
    fn run_attention_one(&mut self, request: u64, head: u32) -> Result<(), InstError> {
        let d_head = self.cfg()?.d_head;
        let score_policy = self.score_policy.clone();
        let context_policy = self.context_policy.clone();
        let gemv = self.gemv;
        let accum = self.accum;
        let softmax = self.softmax.clone();
        // Paged mode: tokens on unmapped pages are skipped entirely (the
        // stream never touches their banks). Resolve visibility before
        // borrowing the head store.
        let visible_page = self.tokens_per_page.map(|tpp| {
            let mapped = self.mapped_pages.get(&(request, head)).cloned().unwrap_or_default();
            (tpp, mapped)
        });
        let store = self.head_mut(request, head)?;
        let l = store.keys.len();
        if l == 0 {
            return Err(InstError::EmptyKv);
        }
        let q = store.q.clone().ok_or(InstError::MissingQ)?;
        let tokens: Vec<usize> = (0..l)
            .filter(|&j| match &visible_page {
                None => true,
                Some((tpp, mapped)) => mapped.contains(&(j as u64 / tpp)),
            })
            .collect();
        if tokens.is_empty() {
            return Err(InstError::NothingMapped);
        }

        // Build Kᵀ (d_head × l_eff): column j is the j-th visible key.
        let l_eff = tokens.len();
        let mut kt = Matrix::zeros(d_head, l_eff);
        for (j, &tok) in tokens.iter().enumerate() {
            for (r, &val) in store.keys[tok].iter().enumerate() {
                kt.set(r, j, val);
            }
        }
        // GEMV_score with the 1/√d scale folded in, applied in f64 and
        // cast to f32 once per score, so on a flat mapping the controller
        // is bit-identical to calling the units one after another.
        let mut scores = hierarchical_gemv(&gemv, &accum, &score_policy, &q, &kt);
        let scale = 1.0 / (d_head as f64).sqrt();
        for s in &mut scores {
            *s = (f64::from(*s) * scale) as f32;
        }
        // PIM_SFM on the buffer die.
        let weights = softmax.compute(&scores);
        // Build V (l_eff × d_head) and run GEMV_context.
        let mut v = Matrix::zeros(l_eff, d_head);
        for (j, &tok) in tokens.iter().enumerate() {
            for (c, &val) in store.values[tok].iter().enumerate() {
                v.set(j, c, val);
            }
        }
        let out = hierarchical_gemv(&gemv, &accum, &context_policy, &weights, &v);
        store.out = Some(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::attention_ref;

    fn small_geom() -> StackGeometry {
        // A shrunken stack keeps the functional hierarchy cheap in tests
        // while exercising every level.
        StackGeometry {
            pseudo_channels: 4,
            bank_groups_per_rank: 2,
            ranks: 2,
            banks_per_group: 2,
            ..StackGeometry::hbm3_8hi()
        }
    }

    fn controller() -> AttAccController {
        AttAccController::new(&small_geom(), 2, Precision::Exact)
    }

    fn run_one_head(ctl: &mut AttAccController, d: usize, l: usize) -> Vec<f32> {
        ctl.execute(AttInst::SetModel {
            n_head: 2,
            d_head: d,
            max_l: 4096,
        })
        .unwrap();
        ctl.execute(AttInst::UpdateRequest {
            request: 0,
            remove: false,
        })
        .unwrap();
        let gen = |seed: usize, i: usize| ((seed * 31 + i * 17) % 23) as f32 * 0.09 - 1.0;
        for tok in 0..l {
            let k: Vec<f32> = (0..d).map(|i| gen(tok, i)).collect();
            let v: Vec<f32> = (0..d).map(|i| gen(tok + 100, i)).collect();
            ctl.execute(AttInst::AppendKv {
                request: 0,
                head: 0,
                k: Box::new(k),
                v: Box::new(v),
            })
            .unwrap();
        }
        let q: Vec<f32> = (0..d).map(|i| gen(999, i)).collect();
        ctl.execute(AttInst::LoadQ {
            request: 0,
            head: 0,
            q: Box::new(q),
        })
        .unwrap();
        ctl.execute(AttInst::RunAttention {
            request: 0,
            head: 0,
        })
        .unwrap();
        ctl.execute(AttInst::ReadOutput {
            request: 0,
            head: 0,
        })
        .unwrap()
        .unwrap()
    }

    #[test]
    fn attention_matches_reference() {
        let mut ctl = controller();
        let (d, l) = (8, 13);
        let out = run_one_head(&mut ctl, d, l);

        // Rebuild the same inputs for the reference.
        let gen = |seed: usize, i: usize| ((seed * 31 + i * 17) % 23) as f32 * 0.09 - 1.0;
        let mut kt = vec![0.0f32; d * l];
        let mut v = vec![0.0f32; l * d];
        for tok in 0..l {
            for i in 0..d {
                kt[i * l + tok] = gen(tok, i);
                v[tok * d + i] = gen(tok + 100, i);
            }
        }
        let q: Vec<f32> = (0..d).map(|i| gen(999, i)).collect();
        let want = attention_ref(&q, &kt, &v, l);
        assert_eq!(out.len(), d);
        for (g, w) in out.iter().zip(&want) {
            assert!((f64::from(*g) - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn lifecycle_errors() {
        let mut ctl = controller();
        assert_eq!(
            ctl.execute(AttInst::UpdateRequest {
                request: 0,
                remove: false
            }),
            Err(InstError::NotConfigured)
        );
        ctl.execute(AttInst::SetModel {
            n_head: 1,
            d_head: 4,
            max_l: 4096,
        })
        .unwrap();
        assert_eq!(
            ctl.execute(AttInst::LoadQ {
                request: 7,
                head: 0,
                q: Box::new(vec![0.0; 4])
            }),
            Err(InstError::UnknownRequest(7))
        );
        ctl.execute(AttInst::UpdateRequest {
            request: 7,
            remove: false,
        })
        .unwrap();
        assert_eq!(
            ctl.execute(AttInst::LoadQ {
                request: 7,
                head: 5,
                q: Box::new(vec![0.0; 4])
            }),
            Err(InstError::UnknownHead(5))
        );
        assert_eq!(
            ctl.execute(AttInst::LoadQ {
                request: 7,
                head: 0,
                q: Box::new(vec![0.0; 3])
            }),
            Err(InstError::DimensionMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            ctl.execute(AttInst::RunAttention {
                request: 7,
                head: 0
            }),
            Err(InstError::EmptyKv)
        );
        ctl.execute(AttInst::AppendKv {
            request: 7,
            head: 0,
            k: Box::new(vec![1.0; 4]),
            v: Box::new(vec![1.0; 4]),
        })
        .unwrap();
        assert_eq!(
            ctl.execute(AttInst::RunAttention {
                request: 7,
                head: 0
            }),
            Err(InstError::MissingQ)
        );
        assert_eq!(
            ctl.execute(AttInst::ReadOutput {
                request: 7,
                head: 0
            }),
            Err(InstError::NoOutput)
        );
    }

    #[test]
    fn remove_releases_allocation() {
        let mut ctl = controller();
        ctl.execute(AttInst::SetModel {
            n_head: 4,
            d_head: 8,
            max_l: 4096,
        })
        .unwrap();
        ctl.execute(AttInst::UpdateRequest {
            request: 1,
            remove: false,
        })
        .unwrap();
        ctl.execute(AttInst::AppendKv {
            request: 1,
            head: 0,
            k: Box::new(vec![0.0; 8]),
            v: Box::new(vec![0.0; 8]),
        })
        .unwrap();
        assert_eq!(ctl.config().unwrap().request_len, HashMap::from([(1, 1)]));
        ctl.execute(AttInst::UpdateRequest {
            request: 1,
            remove: true,
        })
        .unwrap();
        assert!(ctl.config().unwrap().request_len.is_empty());
        assert_eq!(
            ctl.execute(AttInst::UpdateRequest {
                request: 1,
                remove: true
            }),
            Err(InstError::UnknownRequest(1))
        );
    }

    #[test]
    fn fp16_path_stays_close_to_reference() {
        let mut ctl = AttAccController::new(&small_geom(), 2, Precision::Fp16);
        let out = run_one_head(&mut ctl, 8, 13);
        let mut exact = controller();
        let want = run_one_head(&mut exact, 8, 13);
        for (g, w) in out.iter().zip(&want) {
            assert!((g - w).abs() < 0.02, "{g} vs {w}");
        }
    }

    #[test]
    fn config_memory_tracks_length() {
        let mut ctl = controller();
        let _ = run_one_head(&mut ctl, 4, 5);
        assert_eq!(ctl.config().unwrap().request_len[&0], 5);
        assert_eq!(ctl.config().unwrap().max_l, 4096);
    }

    /// §3.2's rule at its edges: a `SetModel` on `n_stacks` full-size
    /// stacks, then admissions and retirements, each with the outcome it
    /// must have. A refusal leaves the controller as it was.
    #[test]
    fn admission_follows_the_kv_capacity_rule() {
        let admit = |request| AttInst::UpdateRequest { request, remove: false };
        let retire = |request| AttInst::UpdateRequest { request, remove: true };
        let ok = Ok(None);
        let full = Err(InstError::CapacityExceeded);
        let model = |n_head, d_head, max_l| AttInst::SetModel { n_head, d_head, max_l };
        let cases = [
            // 4 stacks hold 64 GiB and a request at max_l takes 2 KiB a
            // token, about 9.6 GiB: both fit the device, though not one
            // 16-GiB stack.
            (4, model(4, 128, 5_033_164), vec![(admit(0), ok.clone()), (admit(1), ok.clone())]),
            // 2 stacks hold 2^35 B and a request 64 B × 2^27 = 2^33 B:
            // exactly 4 fit, and a retirement frees one slot.
            (
                2,
                model(2, 8, 1 << 27),
                vec![
                    (admit(0), ok.clone()),
                    (admit(1), ok.clone()),
                    (admit(2), ok.clone()),
                    (admit(3), ok.clone()),
                    (admit(4), full.clone()),
                    (retire(0), ok.clone()),
                    (admit(4), ok.clone()),
                    (admit(5), full.clone()),
                ],
            ),
            // A request without heads holds no KV.
            (2, model(0, 1, u64::MAX), (0..100).map(|r| (admit(r), ok.clone())).collect()),
            // Vector bytes 2^63 fit `u64`; K plus V do not.
            (2, model(1, 1 << 62, 1), vec![(admit(0), full.clone())]),
        ];
        for (n_stacks, model, steps) in cases {
            let mut ctl =
                AttAccController::new(&StackGeometry::hbm3_8hi(), n_stacks, Precision::Exact);
            ctl.execute(model.clone()).unwrap();
            for (inst, want) in steps {
                let before = format!("{ctl:?}");
                let got = ctl.execute(inst.clone());
                assert_eq!(got, want, "{model:?} then {inst:?}");
                if got.is_err() {
                    assert_eq!(format!("{ctl:?}"), before, "{model:?} then {inst:?}");
                }
            }
        }
    }
}
