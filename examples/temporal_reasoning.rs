//! The embedded time calculus (§3.1): Allen interval networks
//! \[ALLE83\] and the event calculus \[KS86\], plus the two-dimensional
//! time of propositions (the paper's `P1` / `P1'` example).
//!
//! ```sh
//! cargo run --example temporal_reasoning
//! ```

use telos::time::allen::{AllenNetwork, AllenRel, RelSet};
use telos::time::events::{EventCalculus, Fluent};
use telos::{Interval, Kb};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- Allen constraint network ----------
    println!("== Allen network over project phases ==");
    // 0 = requirements, 1 = design, 2 = implementation, 3 = review.
    let mut net = AllenNetwork::new(4);
    net.assert_rel(0, 1, RelSet::of(AllenRel::Before));
    net.assert_rel(1, 2, RelSet::of(AllenRel::Before));
    net.assert_rel(3, 2, RelSet::of(AllenRel::During));
    let consistent = net.propagate();
    println!("consistent: {consistent}");
    println!("requirements vs implementation: {}", net.get(0, 2));
    println!("requirements vs review        : {}", net.get(0, 3));

    // An inconsistent cycle is detected.
    let mut bad = AllenNetwork::new(3);
    bad.assert_rel(0, 1, RelSet::of(AllenRel::Before));
    bad.assert_rel(1, 2, RelSet::of(AllenRel::Before));
    bad.assert_rel(2, 0, RelSet::of(AllenRel::Before));
    println!("before-cycle consistent: {}\n", bad.propagate());

    // ---------- event calculus ----------
    println!("== event calculus over design versions ==");
    let mut ec = EventCalculus::new();
    let valid = Fluent(0);
    ec.happens(17, &[valid], &[]); // version 17 created
    ec.happens(21, &[], &[valid]); // superseded
    ec.happens(25, &[valid], &[]); // reinstated after backtracking
    println!("valid at 18: {}", ec.holds_at(valid, 18));
    println!("valid at 23: {}", ec.holds_at(valid, 23));
    println!("validity periods: {:?}\n", ec.periods(valid));

    // ---------- two time dimensions on propositions ----------
    println!("== history vs belief time (the P1/P1' example) ==");
    let mut kb = Kb::new();
    let invitation = kb.individual("Invitation")?;
    let class = kb.builtins().simple_class;
    // "The time component of P1, version17, stands for the time
    // interval during which version 17 of the design is regarded as
    // valid"; belief starts when the programmer tells the KB.
    let instanceof = kb.intern("instanceof");
    let link = kb.create_raw(
        invitation,
        instanceof,
        class,
        Interval::between(17, 18)?, // history: version17
    )?;
    let p = kb.get(link)?;
    println!("P1  history (valid during)  : {}", p.history);
    println!("P1' belief  (known since)   : {}", p.belief(kb.now()));
    kb.tick();
    kb.untell(link)?;
    let p = kb.get(link)?;
    println!(
        "after UNTELL, belief interval: {} (history untouched: {})",
        p.belief(kb.now()),
        p.history
    );
    Ok(())
}
