//! The workloads: broker configuration, seeded inputs, and the
//! reference evaluation they are checked against.

use std::sync::Arc;

use boolmatch_core::{EngineKind, PlacementPolicy};
use boolmatch_expr::Expr;
use boolmatch_types::Event;
use boolmatch_workload::scenarios::StockScenario;

/// Subscriptions the churn probe cycles through.
const CHURN_POOL: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    StockS4,
    StockS1,
}

impl Name {
    pub const ALL: [Name; 2] = [Name::StockS4, Name::StockS1];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::StockS4 => "stock-s4",
            Name::StockS1 => "stock-s1",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn spec(self) -> Spec {
        match self {
            Name::StockS4 => Spec {
                kind: EngineKind::NonCanonical,
                shards: 4,
                placement: PlacementPolicy::LeastLoaded,
                subscriptions: 20_000,
                pool: 1024,
                rate: 40.0,
            },
            Name::StockS1 => Spec {
                kind: EngineKind::NonCanonical,
                shards: 1,
                placement: PlacementPolicy::LeastLoaded,
                subscriptions: 20_000,
                pool: 1024,
                rate: 40.0,
            },
        }
    }
}

/// How a workload's broker is built and driven.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: EngineKind,
    pub shards: usize,
    pub placement: PlacementPolicy,
    /// Live subscriptions.
    pub subscriptions: usize,
    /// Distinct events the publish stream cycles through.
    pub pool: usize,
    /// Fixed open-loop rate, in events per second. Recorded, with
    /// the closed-loop rate it was chosen against, in `workloads.json`.
    pub rate: f64,
}

/// Everything a run feeds the broker, generated from the seed before
/// any timing starts.
pub struct Inputs {
    /// Fixed corpus, as subscription text.
    pub corpus: Vec<String>,
    /// Subscriptions the churn probe registers and removes, as text.
    pub churn: Vec<String>,
    /// Distinct events the publish stream cycles through.
    pub pool: Vec<Arc<Event>>,
}

impl Inputs {
    pub fn generate(name: Name, seed: u64) -> Inputs {
        let spec = name.spec();
        let texts = |exprs: Vec<Expr>| exprs.iter().map(ToString::to_string).collect::<Vec<_>>();
        let mut s = StockScenario::new(seed);
        Inputs {
            corpus: texts(s.subscriptions(spec.subscriptions)),
            churn: texts(s.subscriptions(CHURN_POOL)),
            pool: (0..spec.pool).map(|_| Arc::new(s.tick())).collect(),
        }
    }
}

/// Expected notifications per pool event, by direct `Expr::eval_event`
/// over the corpus. Churn-probe subscriptions are removed before the
/// next publish, so they never add to it.
pub struct Reference {
    expected: Vec<u64>,
    pub corpus: Vec<Expr>,
}

impl Reference {
    /// Parses the corpus text and evaluates every subscription against
    /// every pool event.
    pub fn new(inputs: &Inputs) -> Reference {
        let corpus: Vec<Expr> = inputs
            .corpus
            .iter()
            .map(|t| Expr::parse(t).expect("generated subscription text parses"))
            .collect();
        let expected = inputs
            .pool
            .iter()
            .map(|e| corpus.iter().filter(|x| x.eval_event(e)).count() as u64)
            .collect();
        Reference { expected, corpus }
    }

    pub fn expected(&self, event: usize) -> u64 {
        self.expected[event]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in Name::ALL {
            let a = Inputs::generate(name, 3);
            let b = Inputs::generate(name, 3);
            let c = Inputs::generate(name, 4);
            assert_eq!(a.corpus, b.corpus);
            assert_eq!(a.churn, b.churn);
            assert_eq!(a.pool, b.pool);
            assert_ne!(a.pool, c.pool);
            assert_eq!(a.corpus.len(), name.spec().subscriptions);
        }
    }

    #[test]
    fn names_round_trip() {
        for name in Name::ALL {
            assert_eq!(Name::parse(name.as_str()), Some(name));
        }
        assert_eq!(Name::parse("stock"), None);
    }

    /// `workloads.json` records each workload's open-loop rate; it must
    /// be the one the benchmark runs at.
    #[test]
    fn recorded_rates_are_the_ones_run() {
        let record = include_str!("../workloads.json");
        for name in Name::ALL {
            let key = format!("\"{}\": {{", name.as_str());
            let at = record.find(&key).expect("workload recorded");
            let field = "\"open_loop_rate\": ";
            let from = at + record[at..].find(field).expect("rate recorded") + field.len();
            let text: String = record[from..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            assert_eq!(text.parse::<f64>().ok(), Some(name.spec().rate), "{text}");
        }
    }
}
