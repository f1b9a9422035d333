//! Seeded TPC-H query generator: qgen's substitution parameters for Q1,
//! Q6 and the Q15 revenue view, rendered as SQL text.
//!
//! Dates are the engine's day numbers: days since 1992-01-01 in 365-day
//! years, the calendar `rfa_workloads::tpch` generates and the pinned
//! texts in `rfa_engine::{q1_sql, q6_sql, q15_sql}` use. With qgen's
//! validation parameters each generator reproduces its pinned text
//! byte for byte (see the tests).

use rfa_workloads::tpch::Q1_SHIPDATE_CUTOFF;
use rfa_workloads::SplitMix64;

/// Which TPC-H query a text instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Q1,
    Q6,
    Q15,
}

/// One query's substitution parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Params {
    /// `l_shipdate <= 1998-12-01 - DELTA days`, DELTA ∈ [60, 120].
    Q1 { delta: i32 },
    /// A year in 1993–1997, a discount in percent ∈ [2, 9] (the filter
    /// keeps ±1 point), a quantity bound ∈ {24, 25}.
    Q6 {
        year: i32,
        discount_pct: i32,
        quantity: i32,
    },
    /// A three-month window starting in 1993-01 … 1997-10.
    Q15 { year: i32, month: i32 },
}

/// First day of each month in a 365-day year (index 12 is the next
/// year's 1 January).
const MONTH_START: [i32; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];

/// Day number of the first of `month` (1-based, may run past 12) in
/// `year`.
fn month_start(year: i32, month: i32) -> i32 {
    let m0 = month - 1;
    (year - 1992 + m0.div_euclid(12)) * 365 + MONTH_START[m0.rem_euclid(12) as usize]
}

/// 1998-12-01 as the engine counts it: the pinned Q1 cutoff is this day
/// minus qgen's default DELTA of 90.
const Q1_BASE_DAY: i32 = Q1_SHIPDATE_CUTOFF + 90;

impl Params {
    pub fn kind(&self) -> Kind {
        match self {
            Params::Q1 { .. } => Kind::Q1,
            Params::Q6 { .. } => Kind::Q6,
            Params::Q15 { .. } => Kind::Q15,
        }
    }

    /// The Q1 shipdate cutoff (inclusive), for Q1 parameters.
    pub fn q1_cutoff(&self) -> Option<i32> {
        match *self {
            Params::Q1 { delta } => Some(Q1_BASE_DAY - delta),
            _ => None,
        }
    }

    /// The `WHERE` clause body.
    pub fn filter(&self) -> String {
        match *self {
            Params::Q1 { delta } => format!("l_shipdate <= {}", Q1_BASE_DAY - delta),
            Params::Q6 {
                year,
                discount_pct,
                quantity,
            } => format!(
                "l_shipdate >= {} AND l_shipdate < {} \
                 AND l_discount BETWEEN 0.{:02} AND 0.{:02} AND l_quantity < {quantity}",
                month_start(year, 1),
                month_start(year + 1, 1),
                discount_pct - 1,
                discount_pct + 1,
            ),
            Params::Q15 { year, month } => format!(
                "l_shipdate >= {} AND l_shipdate < {}",
                month_start(year, month),
                month_start(year, month + 3)
            ),
        }
    }

    /// The full SQL text, in the shape of the engine's pinned texts.
    pub fn text(&self) -> String {
        let filter = self.filter();
        match self.kind() {
            Kind::Q1 => format!(
                "SELECT l_returnflag, l_linestatus, \
                 SUM(l_quantity), SUM(l_extendedprice), \
                 SUM(l_extendedprice * (1 - l_discount)), \
                 SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
                 AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
                 FROM lineitem \
                 WHERE {filter} \
                 GROUP BY l_returnflag, l_linestatus"
            ),
            Kind::Q6 => {
                format!("SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE {filter}")
            }
            Kind::Q15 => format!(
                "SELECT l_suppkey, \
                 SUM(l_extendedprice * (1 - l_discount)), COUNT(*) \
                 FROM lineitem \
                 WHERE {filter} \
                 GROUP BY l_suppkey"
            ),
        }
    }

    /// `SELECT COUNT(*)` over the same filter: the selected row count.
    pub fn count_text(&self) -> String {
        format!("SELECT COUNT(*) FROM lineitem WHERE {}", self.filter())
    }
}

/// Every parameter set of `kind`, in parameter order.
pub fn domain(kind: Kind) -> Vec<Params> {
    match kind {
        Kind::Q1 => (60..=120).map(|delta| Params::Q1 { delta }).collect(),
        Kind::Q6 => (1993..=1997)
            .flat_map(|year| {
                (2..=9).flat_map(move |discount_pct| {
                    (24..=25).map(move |quantity| Params::Q6 {
                        year,
                        discount_pct,
                        quantity,
                    })
                })
            })
            .collect(),
        Kind::Q15 => (0..58)
            .map(|i| Params::Q15 {
                year: 1993 + i / 12,
                month: 1 + i % 12,
            })
            .collect(),
    }
}

/// One session's query stream. It rotates through `kinds`, and draws
/// each kind's parameters from its qgen domain without replacement: each
/// block of `domain(kind).len()` draws holds every parameter set once, in
/// an order the seed picks. Runs of equal length then send the same mix of
/// texts whatever the seed, so the mix does not move the median latency
/// between seeds (a Q6 year costs up to a fifth more than another).
pub struct QueryGen {
    rng: SplitMix64,
    kinds: &'static [Kind],
    next: usize,
    /// Per entry of `kinds`: the parameter sets left in the current block.
    bags: Vec<Vec<Params>>,
}

impl QueryGen {
    /// The stream of client session `session` under `seed`.
    pub fn new(seed: u64, session: u64, kinds: &'static [Kind]) -> Self {
        let mut mix = SplitMix64::new(seed);
        let stream = mix.next_u64() ^ session.wrapping_mul(0xD1B5_4A32_D192_ED03);
        QueryGen {
            rng: SplitMix64::new(stream),
            kinds,
            next: 0,
            bags: vec![Vec::new(); kinds.len()],
        }
    }

    pub fn next_params(&mut self) -> Params {
        let k = self.next % self.kinds.len();
        self.next += 1;
        let bag = &mut self.bags[k];
        if bag.is_empty() {
            *bag = domain(self.kinds[k]);
            self.rng.shuffle(bag);
        }
        bag.pop().expect("a refilled bag is not empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_parameters_reproduce_the_pinned_texts() {
        assert_eq!(Params::Q1 { delta: 90 }.text(), rfa_engine::q1_sql());
        let q6 = Params::Q6 {
            year: 1994,
            discount_pct: 6,
            quantity: 24,
        };
        assert_eq!(q6.text(), rfa_engine::q6_sql());
        let q15 = Params::Q15 {
            year: 1996,
            month: 1,
        };
        assert_eq!(q15.text(), rfa_engine::q15_sql());
    }

    #[test]
    fn windows_follow_the_calendar() {
        assert_eq!(month_start(1993, 1), 365);
        assert_eq!(month_start(1997, 13), 6 * 365);
        // 1997-10 is the last Q15 start: its window ends on 1998-01-01.
        let last = domain(Kind::Q15).pop().unwrap();
        assert_eq!(
            last,
            Params::Q15 {
                year: 1997,
                month: 10
            }
        );
        assert!(last.filter().ends_with(&format!("< {}", 6 * 365)));
        assert!(Params::Q6 {
            year: 1997,
            discount_pct: 9,
            quantity: 25
        }
        .filter()
        .contains("BETWEEN 0.08 AND 0.10 AND l_quantity < 25"));
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_session() {
        const MIX: &[Kind] = &[Kind::Q1, Kind::Q6, Kind::Q15];
        let take = |seed, session| {
            let mut g = QueryGen::new(seed, session, MIX);
            (0..300).map(|_| g.next_params()).collect::<Vec<_>>()
        };
        let a = take(7, 0);
        assert_eq!(a, take(7, 0));
        assert_ne!(a, take(8, 0));
        assert_ne!(a, take(7, 1));
        // Rotation, and each kind's draws in blocks that hold its whole
        // qgen domain once.
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.kind(), MIX[i % 3]);
        }
        let q1: Vec<Params> = a.iter().step_by(3).copied().collect();
        let mut block = q1[..61].to_vec();
        let mut all = domain(Kind::Q1);
        block.sort_by_key(|p| p.q1_cutoff());
        all.sort_by_key(|p| p.q1_cutoff());
        assert_eq!(block, all);
        assert_ne!(q1[..39], q1[61..]);
        // Distinct texts both repeat and vary within one session.
        let mut texts: Vec<String> = a.iter().map(Params::text).collect();
        texts.sort();
        texts.dedup();
        assert!(texts.len() > 30 && texts.len() < 300);
    }

    #[test]
    fn every_domain_text_resolves_against_lineitem() {
        let table = rfa_engine::lineitem_table(&rfa_workloads::Lineitem::generate(64, 1));
        for kind in [Kind::Q1, Kind::Q6, Kind::Q15] {
            for p in domain(kind) {
                rfa_engine::sql_query(&p.text(), &table).unwrap();
                rfa_engine::sql_query(&p.count_text(), &table).unwrap();
            }
        }
    }
}
