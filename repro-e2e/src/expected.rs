//! The pinned simulated totals (`expected.json`): for the default seed
//! and one held-out seed of every workload, at full size.

use crate::harness::Totals;
use regwin_sweep::json::{self, Value};

const EXPECTED: &str = include_str!("../expected.json");

/// Compares `totals` with the pinned totals of (`workload`, `seed`).
/// `None` when that seed is not pinned.
pub fn check(workload: &str, seed: u64, totals: &Totals) -> Option<Result<(), String>> {
    let doc = match json::parse(EXPECTED) {
        Ok(doc) => doc,
        Err(e) => return Some(Err(format!("expected.json: {e}"))),
    };
    let pinned = doc.get(workload)?.get(&seed.to_string())?;
    let Value::Obj(fields) = pinned else {
        return Some(Err(format!("expected.json: {workload}/{seed} is not an object")));
    };
    let mismatches: Vec<String> = fields
        .iter()
        .map(|(k, want)| (k, want.as_u64(), totals.iter().find(|(n, _)| n == k).map(|&(_, v)| v)))
        .filter(|(_, want, got)| want != got || want.is_none())
        .map(|(k, want, got)| format!("{k}: pinned {want:?}, got {got:?}"))
        .collect();
    Some(if mismatches.is_empty() && fields.len() == totals.len() {
        Ok(())
    } else if mismatches.is_empty() {
        Err(format!("pinned {} totals, computed {}", fields.len(), totals.len()))
    } else {
        Err(mismatches.join("; "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{default_seed, WORKLOADS};

    #[test]
    fn every_workload_pins_its_default_seed_and_one_held_out_seed() {
        let doc = json::parse(EXPECTED).unwrap();
        for w in WORKLOADS {
            let Some(Value::Obj(seeds)) = doc.get(w) else { panic!("{w} not pinned") };
            assert_eq!(seeds.len(), 2, "{w}");
            assert!(seeds.iter().any(|(s, _)| *s == default_seed(w).to_string()), "{w}");
        }
    }

    #[test]
    fn unpinned_seeds_are_not_checked_and_mismatches_are_named() {
        let totals: Totals = vec![("cells", 1)];
        assert!(check("sweep_fifo", 123_456_789, &totals).is_none());
        let seed = default_seed("sweep_fifo");
        let err = check("sweep_fifo", seed, &totals).unwrap().unwrap_err();
        assert!(err.contains("cells"), "{err}");
    }
}
