//! Parameter-sweep utilities and the speedup heat map.

use crate::experiment::{analytic_serve, max_feasible_batch};
use crate::report::Table;
use crate::{SweepRunner, System, SystemExecutor};
use attacc_model::ModelConfig;

/// One cell of the (L_in, L_out) speedup sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupCell {
    /// Prompt length.
    pub l_in: u64,
    /// Output length.
    pub l_out: u64,
    /// Full `DGX+AttAccs` speedup over `DGX_Base`.
    pub speedup: f64,
}

/// Sweeps the full `DGX+AttAccs` speedup over `DGX_Base` across a grid of
/// sequence shapes — the companion of Fig. 2's heat map showing *where*
/// the PIM platform pays off. Grid cells are independent and run on the
/// [`SweepRunner`]; output order matches the serial nested loops exactly.
#[must_use]
pub fn speedup_grid(model: &ModelConfig, lens: &[u64], n_requests: u64) -> Vec<SpeedupCell> {
    let base_sys = System::dgx_base();
    let pim_sys = System::dgx_attacc_full();
    let cells: Vec<(u64, u64)> = lens
        .iter()
        .flat_map(|&l_in| lens.iter().map(move |&l_out| (l_in, l_out)))
        .collect();
    SweepRunner::from_env().map(&cells, |&(l_in, l_out)| {
        let time = |sys: &System| {
            let b = max_feasible_batch(sys, model, l_in, l_out, None).max(1);
            analytic_serve(&SystemExecutor::new(sys.clone(), model), l_in, l_out, n_requests, b).0
        };
        SpeedupCell {
            l_in,
            l_out,
            speedup: time(&base_sys) / time(&pim_sys),
        }
    })
}

/// Renders a grid of cells as a heat-map-style table (rows = L_out
/// descending, columns = L_in ascending, like Fig. 2).
#[must_use]
pub fn grid_table(title: &str, lens: &[u64], cells: &[SpeedupCell]) -> Table {
    let mut headers: Vec<String> = vec!["Lout \\ Lin".into()];
    headers.extend(lens.iter().map(ToString::to_string));
    let mut t = Table::new(title, &headers.iter().map(String::as_str).collect::<Vec<_>>());
    for &l_out in lens.iter().rev() {
        let mut row = vec![l_out.to_string()];
        for &l_in in lens {
            let cell = cells
                .iter()
                .find(|c| c.l_in == l_in && c.l_out == l_out)
                .map_or(0.0, |c| c.speedup);
            row.push(format!("{cell:.2}"));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_speedup_grows_toward_long_sequences() {
        let m = ModelConfig::gpt3_175b();
        let lens = [256u64, 1024, 2048];
        let cells = speedup_grid(&m, &lens, 200);
        assert_eq!(cells.len(), 9);
        let at = |li, lo| {
            cells
                .iter()
                .find(|c| c.l_in == li && c.l_out == lo)
                .unwrap()
                .speedup
        };
        assert!(at(2048, 2048) > at(256, 256));
        for c in &cells {
            assert!(c.speedup >= 1.0, "({}, {}): {}", c.l_in, c.l_out, c.speedup);
        }
    }

    #[test]
    fn grid_table_has_full_shape() {
        let m = ModelConfig::gpt3_175b();
        let lens = [256u64, 1024];
        let cells = speedup_grid(&m, &lens, 100);
        let t = grid_table("grid", &lens, &cells);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].len(), 3);
        assert!(t.to_string().contains("1024"));
    }
}
