//! Correctness checks built into every run. Each returns the failures
//! it found, one line each; any failure makes the run incorrect and the
//! process exit nonzero.

use crate::library::Library;
use rtwc_core::{
    cal_u, determine_feasibility, determine_feasibility_parallel, DelayBound, FeasibilityReport,
    StreamId, StreamSet, StreamSpec,
};
use wormnet_topology::{Mesh, Topology, XyRouting};

/// The paper's worked example (§4.4): five streams on a 10x10 mesh
/// whose published bounds are `U = (7, 8, 26, 20, 33)`. `U_3 = 20`
/// follows from the paper's printed `HP_3 = {M1}`; pure geometry also
/// puts `M2` (and through it `M0`) in `HP_3` and gives 30, which is what
/// `determine_feasibility` over the whole set reports
/// (`crates/core/tests/paper_example.rs` pins both readings, and so
/// does this).
pub fn paper_example() -> Vec<String> {
    let mesh = Mesh::mesh2d(10, 10);
    let node = |x: u32, y: u32| mesh.node_at(&[x, y]).expect("on the 10x10 mesh");
    let m = [
        StreamSpec::new(node(7, 3), node(7, 7), 5, 15, 4, 15),
        StreamSpec::new(node(1, 1), node(5, 4), 4, 10, 2, 10),
        StreamSpec::new(node(2, 1), node(7, 5), 3, 40, 4, 40),
        StreamSpec::new(node(4, 1), node(8, 5), 2, 45, 9, 45),
        StreamSpec::new(node(6, 1), node(9, 3), 1, 50, 6, 50),
    ];
    let resolve = |specs: &[StreamSpec]| {
        StreamSet::resolve(&mesh, &XyRouting, specs).expect("the paper's example resolves")
    };
    let mut failures = Vec::new();
    let set = resolve(&m);
    let report = determine_feasibility(&set);
    let got: Vec<Option<u64>> = report.bounds.iter().map(|b| b.value()).collect();
    if got != [Some(7), Some(8), Some(26), Some(30), Some(33)] || !report.is_feasible() {
        failures.push(format!(
            "paper example: bounds {got:?}, expected (7, 8, 26, 30, 33) under strict HP_3"
        ));
    }
    let published = cal_u(&resolve(&[m[1].clone(), m[3].clone()]), StreamId(1), 45);
    if published != DelayBound::Bounded(20) {
        failures.push(format!(
            "paper example: U_3 = {published} under the published HP_3 = {{M1}}, expected 20"
        ));
    }
    failures
}

/// `determine_feasibility_parallel` must report exactly what the serial
/// sweep did, on every set.
pub fn parallel_equals_serial(sets: &[StreamSet], serial: &[FeasibilityReport]) -> Vec<String> {
    let threads = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
    sets.iter()
        .zip(serial)
        .enumerate()
        .filter_map(|(i, (set, want))| {
            let got = determine_feasibility_parallel(set, threads.max(2));
            (got.bounds != want.bounds || got.infeasible != want.infeasible)
                .then(|| format!("set {i}: the parallel report differs from the serial one"))
        })
        .collect()
}

/// A fresh analysis of an admitted set must find it feasible with
/// exactly the bounds the service (or controller) cached.
pub fn resident_set(fresh: &FeasibilityReport, cached: &[Option<u64>]) -> Vec<String> {
    let mut failures = Vec::new();
    if !fresh.is_feasible() {
        failures.push(format!(
            "the admitted set is infeasible on re-analysis: {:?}",
            fresh.infeasible
        ));
    }
    let got: Vec<Option<u64>> = fresh.bounds.iter().map(|b| b.value()).collect();
    if got != cached {
        let at = got.iter().zip(cached).position(|(a, b)| a != b);
        failures.push(format!(
            "re-analysed bounds differ from the cached ones (first at stream {at:?}, {} vs {} streams)",
            got.len(),
            cached.len()
        ));
    }
    failures
}

/// [`resident_set`] for the library target's controller.
pub fn controller_state(lib: &Library) -> Vec<String> {
    let Some(set) = lib.ctl.set() else {
        return Vec::new();
    };
    let cached: Vec<Option<u64>> = lib.ctl.bounds().iter().map(|b| b.value()).collect();
    resident_set(&determine_feasibility(set), &cached)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_holds() {
        assert_eq!(paper_example(), Vec::<String>::new());
    }

    #[test]
    fn resident_check_catches_a_wrong_bound() {
        let mesh = Mesh::mesh2d(4, 4);
        let n = |x, y| mesh.node_at(&[x, y]).unwrap();
        let set = StreamSet::resolve(
            &mesh,
            &XyRouting,
            &[StreamSpec::new(n(0, 0), n(3, 0), 1, 50, 4, 50)],
        )
        .unwrap();
        let report = determine_feasibility(&set);
        let u = report.bounds[0].value();
        assert!(resident_set(&report, &[u]).is_empty());
        assert_eq!(resident_set(&report, &[u.map(|u| u + 1)]).len(), 1);
        assert!(parallel_equals_serial(&[set], &[report]).is_empty());
    }
}
