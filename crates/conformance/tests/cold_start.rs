//! The cold start on `urban_rush`: the edge answers several times before
//! the VO map first holds a pose. Every frame in that gap must render the
//! last edge answer (not nothing) and be labelled `bootstrapping`.

use edgeis::metrics::FrameOutcome;
use edgeis::trace::FNV_OFFSET;
use edgeis_conformance::matrix_scenarios;

#[test]
fn urban_rush_renders_edge_masks_until_the_first_pose() {
    let scenario = matrix_scenarios()
        .into_iter()
        .find(|m| m.name == "urban_rush")
        .expect("matrix has urban_rush");
    let trace = scenario.record();
    let records: Vec<_> = trace.frames.iter().map(|f| &f.record).collect();

    let first_applied = records
        .iter()
        .position(|r| r.trace.applied_digest != FNV_OFFSET)
        .expect("an edge response is applied");
    let first_pose = records
        .iter()
        .position(|r| r.trace.pose.is_some())
        .expect("the VO map initializes");
    assert!(
        first_applied < first_pose,
        "no cold-start gap: first response applied at frame {first_applied}, \
         first pose at frame {first_pose}"
    );

    for (i, r) in records.iter().enumerate().take(first_pose) {
        assert_eq!(r.outcome, FrameOutcome::Bootstrapping, "frame {i}");
        if i >= first_applied {
            assert!(
                r.trace.mask_count > 0,
                "frame {i} renders nothing although the edge answered at frame {first_applied}"
            );
        }
    }
    assert_ne!(records[first_pose].outcome, FrameOutcome::Bootstrapping);
}
