//! The campaign parameter blob arrives from outside the process — in a
//! relay's `Welcome`, in a journal header — so each of its integers is
//! read canonically: one re-encoded non-minimally is refused with the
//! codec's typed error, never decoded to the params it spells.

use proptest::prelude::*;
use uncheatable_grid::campaign::FleetParams;
use uncheatable_grid::core::TransportKind;
use uncheatable_grid::grid::codec::{get_var, put_var};

/// Offsets of every integer in `blob`, in order: version, participants,
/// cheaters, n, m, seed, the scheme name's length, then (behind the name)
/// the churn flag, the chaos presence flag and the chaos seed.
fn integer_offsets(blob: &[u8]) -> Vec<usize> {
    let mut rest = blob;
    let mut offsets = Vec::new();
    for i in 0..10 {
        offsets.push(blob.len() - rest.len());
        let value = get_var(&mut rest, "skip").unwrap();
        if i == 6 {
            rest = &rest[usize::try_from(value).unwrap()..];
        }
    }
    assert!(rest.is_empty());
    offsets
}

proptest! {
    #[test]
    fn a_non_minimal_integer_in_the_params_blob_is_refused(
        participants in any::<u64>(),
        n in any::<u64>(),
        seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        which in 0usize..10,
        extra in 1usize..4,
    ) {
        let blob = FleetParams {
            participants,
            cheaters: participants / 2,
            n,
            m: 14,
            seed,
            scheme: "ni-cbs".into(),
            transport: TransportKind::Direct,
            churn: true,
            chaos_seed: Some(chaos_seed),
        }
        .encode();
        let at = integer_offsets(&blob)[which];
        let mut rest = &blob[at..];
        let value = get_var(&mut rest, "integer").unwrap();
        let mut run = Vec::new();
        put_var(&mut run, value);
        *run.last_mut().unwrap() |= 0x80;
        run.resize(run.len() + extra - 1, 0x80);
        run.push(0);
        let expected = if run.len() <= 10 {
            "overlong integer encoding"
        } else {
            "integer exceeds 64 bits"
        };
        let forged = [&blob[..at], &run, rest].concat();
        let err = FleetParams::decode(&forged).unwrap_err();
        prop_assert!(err.contains(expected), "{} at integer {}: {}", expected, which, err);
    }
}
