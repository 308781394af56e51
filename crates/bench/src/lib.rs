//! Shared driver code for the benchmark binaries that regenerate every
//! table and figure of the Grafter paper's evaluation (§5).
//!
//! Each binary prints the same *rows/series* the paper reports: metrics of
//! the fused implementation normalised to the unfused baseline (y-axis of
//! Figs. 9, 11, 12, 13; the ratio columns of Tables 3, 4 and 6), plus the
//! baseline runtime the figures print in parentheses.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `figure9`  | Fig. 9a (Grafter) / Fig. 9b (TreeFuser) — render tree sweep |
//! | `table3`   | Table 3 — Doc1/Doc2/Doc3 render configurations |
//! | `figure11` | Fig. 11 — AST pass sweep over #functions |
//! | `table4`   | Table 4 — Prog1/Prog2/Prog3 AST configurations |
//! | `figure12` | Fig. 12 — kd-tree equation-1 sweep over tree depth |
//! | `table6`   | Table 6 — the three piecewise-function equations |
//! | `figure13` | Fig. 13 — FMM sweep over #points |

use grafter_workloads::harness::{Comparison, Normalized};

/// One printed row of an experiment table.
pub struct Row {
    /// x-axis value or configuration name.
    pub label: String,
    /// Fused / unfused ratios.
    pub norm: Normalized,
    /// Unfused (baseline) modelled runtime in cycles.
    pub base_cycles: u64,
    /// Live tree size in bytes.
    pub tree_bytes: u64,
}

impl Row {
    /// Builds a row from a comparison.
    pub fn from_comparison(label: impl Into<String>, cmp: &Comparison) -> Row {
        Row {
            label: label.into(),
            norm: cmp.normalized(),
            base_cycles: cmp.unfused.cycles,
            tree_bytes: cmp.unfused.tree_bytes,
        }
    }
}

/// Prints a table in the paper's normalised-metric format.
pub fn print_table(title: &str, x_axis: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>8} {:>12} {:>9} {:>9} {:>9} {:>14} {:>10}",
        x_axis, "visits", "instructions", "L2 miss", "L3 miss", "runtime", "base (cycles)", "tree"
    );
    for row in rows {
        println!(
            "{:<22} {:>8.3} {:>12.3} {:>9.3} {:>9.3} {:>9.3} {:>14} {:>10}",
            row.label,
            row.norm.visits,
            row.norm.instructions,
            row.norm.l2_misses,
            row.norm.l3_misses,
            row.norm.runtime,
            row.base_cycles,
            human_bytes(row.tree_bytes),
        );
    }
    println!("(all metric columns are fused / unfused; < 1.0 means fusion wins)");
}

/// Formats a byte count in human units.
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Parses `--key value` style options from argv.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}
