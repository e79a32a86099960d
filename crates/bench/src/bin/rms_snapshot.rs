//! Writes `BENCH_rms.json`: the E-3 snapshot (ISSUE 9 acceptance).
//!
//! JTMS vs ATMS labeling cost over dependency networks derived from
//! the *same* synthetic design histories ([`gkbms::synth`]), in two
//! shapes: flat (one node per design object) and decision-granularity
//! abstracted (one node per decision — what the GKBMS dependency
//! graph keeps). The ATMS is swept only at the shared small sizes;
//! at 10^5–10^6 decisions its per-environment assumption bitsets are
//! exactly the "fairly small networks" ceiling §3.3.3 cites, so the
//! large sizes are JTMS-only.
//!
//! The `gkbms/served` rows time what the GKBMS serves instead of a
//! JTMS: `Gkbms::retract_decision` (the over-delete/rederive walk over
//! the design record, cascade and documentation writes) over seeded
//! victims in a `synth` corpus.
//!
//! Run with `cargo run --release -p bench --bin rms_snapshot`.

use bench::rmsnet;
use gkbms::synth::{generate_into, plan, SynthConfig, SynthRng};
use gkbms::Gkbms;
use std::time::Instant;

fn median_secs(mut f: impl FnMut(), samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn cfg(decisions: usize) -> SynthConfig {
    SynthConfig {
        seed: 42,
        decisions,
        retraction_rate: 0.0,
        ..SynthConfig::default()
    }
}

/// One JTMS measurement: build cost plus backtracking churn
/// (retract + re-enable a sampled decision assumption).
fn jtms_entry(decisions: usize, flat: bool) -> String {
    let p = plan(&cfg(decisions));
    let build = if flat {
        rmsnet::flat_jtms
    } else {
        rmsnet::abstracted_jtms
    };
    let build_seconds = median_secs(
        || {
            std::hint::black_box(build(&p).tms.len());
        },
        3,
    );
    let mut net = build(&p);
    assert_eq!(
        net.tms.in_nodes().len(),
        net.tms.len(),
        "all nodes IN after a retraction-free build"
    );
    let mut rng = SynthRng::new(7);
    let mut times = Vec::new();
    for _ in 0..5 {
        let a = net.assumptions[rng.below(net.assumptions.len())];
        let start = Instant::now();
        net.tms.retract(a);
        net.tms.enable(a);
        times.push(start.elapsed().as_secs_f64());
        assert_eq!(net.tms.in_nodes().len(), net.tms.len());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let churn_seconds = times[times.len() / 2];
    let topology = if flat { "flat" } else { "abstracted" };
    println!(
        "jtms/{topology} decisions={decisions}: {} nodes, {} justs, \
         build {build_seconds:.4}s, churn {churn_seconds:.5}s",
        net.tms.len(),
        net.justifications
    );
    format!(
        "    {{\n      \"engine\": \"jtms\",\n      \"topology\": \"{topology}\",\n      \
         \"decisions\": {decisions},\n      \"nodes\": {},\n      \
         \"justifications\": {},\n      \"build_seconds\": {build_seconds:.6},\n      \
         \"churn_seconds\": {churn_seconds:.6},\n      \"propagations\": {}\n    }}",
        net.tms.len(),
        net.justifications,
        net.tms.propagations
    )
}

/// One ATMS measurement: label-computation cost of building the same
/// network. No churn leg — the ATMS keeps every context, so decision
/// retraction is a query-time environment switch, not a relabeling.
fn atms_entry(decisions: usize, flat: bool) -> String {
    let p = plan(&cfg(decisions));
    let build = if flat {
        rmsnet::flat_atms
    } else {
        rmsnet::abstracted_atms
    };
    let build_seconds = median_secs(
        || {
            std::hint::black_box(build(&p).atms.len());
        },
        3,
    );
    let net = build(&p);
    let topology = if flat { "flat" } else { "abstracted" };
    println!(
        "atms/{topology} decisions={decisions}: {} nodes, {} justs, \
         build {build_seconds:.4}s, {} label updates",
        net.atms.len(),
        net.justifications,
        net.atms.label_updates
    );
    format!(
        "    {{\n      \"engine\": \"atms\",\n      \"topology\": \"{topology}\",\n      \
         \"decisions\": {decisions},\n      \"nodes\": {},\n      \
         \"justifications\": {},\n      \"build_seconds\": {build_seconds:.6},\n      \
         \"label_updates\": {}\n    }}",
        net.atms.len(),
        net.justifications,
        net.atms.label_updates
    )
}

/// The served path: mean `Gkbms::retract_decision` over seeded
/// effective victims of a `synth` corpus (default retraction rate, as
/// the end-to-end benchmark generates it).
fn gkbms_entry(decisions: usize) -> String {
    const VICTIMS: usize = 40;
    let mut g = Gkbms::new().expect("fresh gkbms");
    let corpus = SynthConfig {
        seed: 42,
        decisions,
        ..SynthConfig::default()
    };
    generate_into(&mut g, &corpus).expect("synth corpus");
    let propositions = g.kb().len();
    let mut rng = SynthRng::new(7);
    let (mut seconds, mut taken_out) = (0.0, 0);
    for _ in 0..VICTIMS {
        let victim = loop {
            let name = &g.records()[rng.below(g.records().len())].name;
            if g.is_effective(name) {
                break name.clone();
            }
        };
        let start = Instant::now();
        let affected = g.retract_decision(&victim).expect("effective victim");
        seconds += start.elapsed().as_secs_f64();
        taken_out += affected.len();
    }
    let retract_mean_seconds = seconds / VICTIMS as f64;
    println!(
        "gkbms/served decisions={decisions}: {propositions} propositions, \
         retract_decision mean {retract_mean_seconds:.6}s over {VICTIMS} victims \
         ({taken_out} objects taken out)"
    );
    format!(
        "    {{\n      \"engine\": \"gkbms\",\n      \"topology\": \"served\",\n      \
         \"decisions\": {decisions},\n      \"propositions\": {propositions},\n      \
         \"victims\": {VICTIMS},\n      \"objects_taken_out\": {taken_out},\n      \
         \"retract_mean_seconds\": {retract_mean_seconds:.6}\n    }}"
    )
}

fn main() {
    // Same-seed corpus identity: the whole sweep is meaningless unless
    // every engine/topology pair sees byte-for-byte the same history.
    let p1 = plan(&cfg(20_000));
    let p2 = plan(&cfg(20_000));
    assert_eq!(p1.fingerprint(), p2.fingerprint(), "same-seed identity");
    assert_eq!(p1.ops, p2.ops, "same-seed plans are identical");
    let fingerprint = p1.fingerprint();

    let shared = [1_000usize, 5_000, 20_000];
    let jtms_only = [200_000usize, 1_000_000];
    let mut entries = Vec::new();
    for &n in &shared {
        entries.push(jtms_entry(n, true));
        entries.push(jtms_entry(n, false));
        entries.push(atms_entry(n, true));
        entries.push(atms_entry(n, false));
    }
    for &n in &jtms_only {
        entries.push(jtms_entry(n, true));
        entries.push(jtms_entry(n, false));
    }
    for n in [250, 5_000] {
        entries.push(gkbms_entry(n));
    }

    // The abstraction claim, checked on the largest shared size: the
    // decision-granularity network is strictly smaller than the flat
    // one over the same history.
    let flat = rmsnet::flat_jtms(&p1);
    let abs = rmsnet::abstracted_jtms(&p1);
    assert!(abs.tms.len() < flat.tms.len());
    assert!(abs.justifications < flat.justifications);
    println!(
        "abstraction at 20k decisions: {} -> {} nodes ({:.2}x), {} -> {} justs",
        flat.tms.len(),
        abs.tms.len(),
        flat.tms.len() as f64 / abs.tms.len() as f64,
        flat.justifications,
        abs.justifications
    );

    let json = format!(
        "{{\n  \"bench\": \"rms\",\n  \"issue\": 9,\n  \"seed\": 42,\n  \
         \"corpus_fingerprint\": \"{fingerprint:016x}\",\n  \
         \"note\": \"E-3: JTMS vs ATMS labeling over synth design histories (gkbms::synth::plan, seed 42, retraction-free build then retract/enable churn); flat = node per design object, abstracted = node per decision (GKBMS decision granularity); ATMS swept at shared sizes only — its per-env assumption bitsets are the small-network ceiling of para 3.3.3, so 200k/1M decisions are JTMS-only; gkbms/served = mean Gkbms::retract_decision (design-record walk + cascade + documentation) over 40 seeded effective victims of a synth corpus with the default retraction rate\",\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_rms.json", &json).expect("write BENCH_rms.json");
    println!("wrote BENCH_rms.json");
}
