//! Winner identity of the solver-seeded search: seeding installs an
//! analytical incumbent *before* the branch-and-bound drain, so it may
//! only change how much work the search does — never which schedule
//! wins. These properties drive random layer sets through seeded and
//! unseeded searches on both reference presets and both schedulers and
//! demand byte-identical winners, plus the mutation probe: an
//! *inadmissible* injected seed must be a typed error, not a silently
//! wrong "optimum".

use flexer::prelude::*;
use flexer::sched::{SchedError, SeedOptions};
use proptest::prelude::*;

/// Random small conv layers — modest extents so a whole network
/// searches quickly, irregular enough to exercise the bound model.
fn layer_strategy() -> impl Strategy<Value = ConvLayer> {
    (
        4u32..48, // in channels
        7u32..21, // spatial extent
        4u32..48, // out channels
        prop_oneof![Just((1u32, 0u32)), Just((3, 1))],
    )
        .prop_map(|(c, hw, k, (kern, pad))| {
            ConvLayerBuilder::new("rand", c, hw, hw, k)
                .kernel(kern, kern)
                .padding(pad)
                .build()
                .expect("generated layers are valid")
        })
}

fn seeded(opts: &SearchOptions, top_k: usize) -> SearchOptions {
    let mut s = opts.clone();
    s.seed = SeedOptions {
        enabled: true,
        top_k,
        inject: None,
    };
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded and unseeded searches return byte-identical winners for
    /// every layer of a random network, on both reference presets,
    /// with both schedulers, at any seed breadth.
    #[test]
    fn seeding_never_changes_the_winner(
        layers in prop::collection::vec(layer_strategy(), 1..4),
        preset in prop::sample::select(vec![ArchPreset::Arch1, ArchPreset::Arch5]),
        top_k in 1usize..8,
    ) {
        let arch = ArchConfig::preset(preset);
        let opts = SearchOptions::quick();
        let opts_seeded = seeded(&opts, top_k);

        let plain = Search::new(&arch, &opts).run(&layers).into_result().unwrap();
        let with_seed = Search::new(&arch, &opts_seeded).run(&layers).into_result().unwrap();
        for (p, s) in plain.iter().zip(&with_seed) {
            prop_assert_eq!(&p.schedule, &s.schedule, "OoO winner drifted under seeding");
            prop_assert_eq!(p.factors, s.factors);
            prop_assert_eq!(p.dataflow, s.dataflow);
            prop_assert_eq!(p.score, s.score);
            prop_assert!(s.is_exact());
        }

        let baseline = |opts| Search { kind: SchedulerKind::Static, ..Search::new(&arch, opts) };
        let plain = baseline(&opts).run(&layers).into_result().unwrap();
        let with_seed = baseline(&opts_seeded).run(&layers).into_result().unwrap();
        for (p, s) in plain.iter().zip(&with_seed) {
            prop_assert_eq!(&p.schedule, &s.schedule, "static winner drifted under seeding");
            prop_assert_eq!(p.factors, s.factors);
            prop_assert_eq!(p.dataflow, s.dataflow);
            prop_assert_eq!(p.score, s.score);
        }
    }

    /// Mutation probe: injecting a seed below the layer's best
    /// admissible lower bound is the typed
    /// [`SchedError::InadmissibleSeed`], never a schedule.
    #[test]
    fn inadmissible_injected_seed_is_a_typed_error(
        layer in layer_strategy(),
        preset in prop::sample::select(vec![ArchPreset::Arch1, ArchPreset::Arch5]),
    ) {
        let arch = ArchConfig::preset(preset);
        let mut opts = SearchOptions::quick();
        opts.seed = SeedOptions {
            enabled: true,
            top_k: 4,
            // No real schedule scores zero: always below every bound.
            inject: Some(0.0),
        };
        let err = Search::new(&arch, &opts).run_layer(&layer).unwrap_err();
        prop_assert!(
            matches!(err, SchedError::InadmissibleSeed { .. }),
            "expected InadmissibleSeed, got {err:?}"
        );
    }
}
