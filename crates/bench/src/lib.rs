//! # congest-bench — the paper's scoreboard
//!
//! One row per measured quantity of the paper's claims: Observation 1,
//! Lemma 5, Theorems 1–3, the §3.1 / Theorem 10 / Theorem 13 packings,
//! Lemma 9 and Theorem 12, the APSP stretch and cut error of §4, and the
//! E12–E13 traffic and resilience readings. Each builder below keeps its
//! experiment's loop, instances and seeds; DESIGN.md §5 maps every row to
//! the claim it holds up. A row is keyed by `exp, claim, family, params,
//! quantity` and carries `measured`, `bound` and `ratio = measured / bound`
//! (`null` where the claim has no bound). A claim with an envelope
//! (Observation 1's D ≤ 3n/δ, E8's stretch ≤ 2k − 1, Theorem 3's floor…)
//! is asserted by its builder, so a row outside it never gets printed.
//!
//! `cargo run --release -q -p congest-bench --bin reproduce > REPRODUCTION.json`
//! regenerates the committed file: model quantities only, the same on any
//! host and at any pool width. `tests/reproduction.rs` recomputes the rows
//! that are cheap in a debug build and holds each to its committed line;
//! CI's `experiments` lane regenerates them all. Wall-clock numbers are
//! `benchmark/`'s.

mod apsp;
mod broadcast;
mod packing;
mod partition;

pub use apsp::{e11_theorem9, e7_apsp, e8_spanner, e9_cuts};
pub use broadcast::{
    e12_profile, e13_resilience, e3_broadcast, e4_crossover, e5_optimality, theorem1_envelope,
    theorem3_floor,
};
pub use packing::{e10_kd, e6_packing};
pub use partition::{
    e1_sampling, e2_partition, lemma5_failure_decay, observation1, theorem2_envelope,
};

use std::collections::HashSet;

/// Every builder, in the order `reproduce` prints its rows.
pub const BUILDERS: [fn() -> Vec<Row>; 18] = [
    e1_sampling,
    observation1,
    lemma5_failure_decay,
    e2_partition,
    theorem2_envelope,
    e3_broadcast,
    theorem1_envelope,
    e4_crossover,
    e5_optimality,
    theorem3_floor,
    e6_packing,
    e7_apsp,
    e8_spanner,
    e9_cuts,
    e10_kd,
    e11_theorem9,
    e12_profile,
    e13_resilience,
];

/// One measured quantity of one claim on one instance.
#[derive(Debug)]
pub struct Row {
    pub exp: &'static str,
    pub claim: &'static str,
    pub family: String,
    pub params: String,
    pub quantity: &'static str,
    pub measured: f64,
    pub bound: Option<f64>,
}

impl Row {
    pub fn ratio(&self) -> Option<f64> {
        self.bound.map(|b| self.measured / b)
    }

    /// The rendered key fields: a committed line starts with exactly this.
    pub fn key(&self) -> String {
        format!(
            "{{\"exp\": {:?}, \"claim\": {:?}, \"family\": {:?}, \"params\": {:?}, \"quantity\": {:?}",
            self.exp, self.claim, self.family, self.params, self.quantity
        )
    }

    /// The row as one JSON object. Strings go through `Debug`, which is
    /// JSON's escaping for every string written here (no control or
    /// combining characters).
    pub fn render(&self) -> String {
        let opt = |x: Option<f64>| x.map_or("null".to_string(), num);
        format!(
            "{}, \"measured\": {}, \"bound\": {}, \"ratio\": {}}}",
            self.key(),
            num(self.measured),
            opt(self.bound),
            opt(self.ratio())
        )
    }

    /// The claim's envelope: panic, naming the row, unless `lo ≤ ratio ≤ hi`.
    fn within(&self, lo: f64, hi: f64) {
        let r = self.ratio().expect("an envelope needs a bound");
        assert!(
            lo <= r && r <= hi,
            "{}: ratio {r} outside [{lo}, {hi}]",
            self.key()
        );
    }
}

/// The whole file: a JSON array, one row a line. Keys must be unique.
pub fn render(rows: &[Row]) -> String {
    let mut seen = HashSet::new();
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            assert!(seen.insert(r.key()), "duplicate row {}", r.key());
            r.render()
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// A number as the file writes it: an integral value bare, anything else
/// to about four significant digits (the precision the experiment tables
/// printed, so the last bit of a `ln` cannot move a line).
fn num(x: f64) -> String {
    assert!(x.is_finite(), "JSON has no {x}");
    if x.fract() == 0.0 || x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// The rows of one builder's claim, pushed in its loop order against the
/// instance [`Claim::on`] last named.
struct Claim {
    exp: &'static str,
    claim: &'static str,
    family: String,
    params: String,
    rows: Vec<Row>,
}

impl Claim {
    fn new(exp: &'static str, claim: &'static str) -> Self {
        let (family, params, rows) = (String::new(), String::new(), Vec::new());
        Claim {
            exp,
            claim,
            family,
            params,
            rows,
        }
    }

    fn on(&mut self, family: &str, params: &str) {
        (self.family, self.params) = (family.to_string(), params.to_string());
    }

    fn row(&mut self, quantity: &'static str, measured: f64, bound: Option<f64>) -> &Row {
        self.rows.push(Row {
            exp: self.exp,
            claim: self.claim,
            family: self.family.clone(),
            params: self.params.clone(),
            quantity,
            measured,
            bound,
        });
        self.rows.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bound: Option<f64>) -> Row {
        Row {
            exp: "E0",
            claim: "c",
            family: "f".into(),
            params: "p".into(),
            quantity: "q",
            measured: 3.0,
            bound,
        }
    }

    #[test]
    fn a_row_renders_as_one_json_object() {
        assert_eq!(
            row(Some(8.0)).render(),
            r#"{"exp": "E0", "claim": "c", "family": "f", "params": "p", "quantity": "q", "measured": 3, "bound": 8, "ratio": 0.3750}"#
        );
        assert!(row(None)
            .render()
            .ends_with(r#""bound": null, "ratio": null}"#));
    }

    #[test]
    fn numbers_keep_the_tables_precision() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(16.0), "16");
        assert_eq!(num(123.4), "123");
        assert_eq!(num(1.5), "1.50");
        assert_eq!(num(0.1234), "0.1234");
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn duplicate_keys_are_refused() {
        render(&[row(None), row(Some(1.0))]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn an_envelope_names_its_row() {
        row(Some(2.0)).within(0.0, 1.0);
    }
}
