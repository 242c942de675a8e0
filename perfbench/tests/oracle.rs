//! The output check catches wrong results: every workload matches its
//! reference, and a fold with one altered, missing or extra row, or the
//! reference for another seed, is refused.

use sbx_perfbench::measure::check;
use sbx_perfbench::oracle::reference;
use sbx_perfbench::workload::{self, Scale, Workload};

const SMALL: Scale = Scale {
    bundle_rows: 2_000,
    windows: 4,
    join_windows: 3,
};

#[test]
fn corrupted_folds_are_caught() {
    for w in Workload::ALL {
        let seed = 23;
        let run = workload::run(w, SMALL, seed, false).expect("run");
        let expected = reference(w, SMALL, seed);
        assert_eq!(check(w, SMALL, &run, expected), Ok(()), "{}", w.name());

        let row = run.probe.sink().first_row.expect("an output row");
        let mut altered = row.clone();
        altered[1] = altered[1].wrapping_add(1);

        let mut changed = expected;
        changed.remove_row(&row);
        changed.add_row(&altered);
        let mut missing = expected;
        missing.remove_row(&row);
        let mut extra = expected;
        extra.add_row(&row);
        for (what, bad) in [("changed", changed), ("missing", missing), ("extra", extra)] {
            assert!(
                check(w, SMALL, &run, bad).is_err(),
                "{}: a {what} row went unnoticed",
                w.name()
            );
        }
        let other_seed = reference(w, SMALL, seed + 1);
        assert!(check(w, SMALL, &run, other_seed).is_err(), "{}", w.name());
    }
}
