//! A second workload in the paper's spirit: the classic CSP prime sieve
//! as a chain of filter threads over byte streams — the kind of
//! fine-grained pipeline the paper's introduction motivates (functional/
//! logic-language runtimes, parallel C libraries).
//!
//! Every candidate number flows through every live filter; with 1-byte
//! buffers each hop is a context switch, so the window schemes are under
//! constant pressure.
//!
//! ```sh
//! cargo run --release --example prime_sieve
//! ```

use regwin::prelude::*;
use std::sync::{Arc, Mutex};

const FILTERS: usize = 12; // enough for primes < 41²
const LIMIT: u8 = 250;

fn main() -> Result<(), RtError> {
    let primes_found = Arc::new(Mutex::new(Vec::<u8>::new()));
    let mut results = Vec::new();

    for (scheme, nwindows) in SchemeKind::ALL.iter().flat_map(|s| [(*s, 8usize), (*s, 24)]) {
        let mut sim = Simulation::new(nwindows, scheme)?;
        let mut input = sim.add_stream("candidates", 1, 1);

        // The generator feeds 2..LIMIT into the chain.
        let first = input;
        sim.spawn_async("generator", async move |ctx| {
            for n in 2..=LIMIT {
                ctx.call(async |ctx| {
                    ctx.compute(1);
                    ctx.write_byte(first, n).await
                })
                .await?;
            }
            ctx.close_writer(first)
        });

        // Each filter adopts the first number it sees (a prime), then
        // drops that prime's multiples and forwards the rest.
        let found = Arc::clone(&primes_found);
        for i in 0..FILTERS {
            let output = sim.add_stream(format!("chain{i}"), 1, 1);
            let inlet = input;
            let found = Arc::clone(&found);
            sim.spawn_async(format!("filter{i}"), async move |ctx| {
                let mine = match ctx
                    .call(async |ctx| {
                        ctx.compute(1);
                        ctx.read_byte(inlet).await
                    })
                    .await?
                {
                    Some(p) => p,
                    None => return ctx.close_writer(output),
                };
                found.lock().expect("primes").push(mine);
                loop {
                    let n = ctx
                        .call(async |ctx| {
                            ctx.compute(1);
                            ctx.read_byte(inlet).await
                        })
                        .await?;
                    match n {
                        Some(n) if n % mine != 0 => ctx.write_byte(output, n).await?,
                        Some(_) => ctx.compute(1), // a multiple: drop it
                        None => return ctx.close_writer(output),
                    }
                }
            });
            input = output;
        }

        // The tail collects the survivors (primes beyond the filters'
        // own, up to the square of the last filter prime).
        let tail = input;
        let found_tail = Arc::clone(&primes_found);
        sim.spawn_async("tail", async move |ctx| {
            while let Some(n) = ctx.read_byte(tail).await? {
                found_tail.lock().expect("primes").push(n);
            }
            Ok(())
        });

        primes_found.lock().expect("primes").clear();
        let report = sim.run()?;
        let mut primes = primes_found.lock().expect("primes").clone();
        primes.sort_unstable();
        results.push((scheme, nwindows, report, primes));
    }

    // All schemes must sieve identically.
    let reference: Vec<u8> =
        (2..=LIMIT).filter(|n| (2..*n).all(|d| n % d != 0 || *n == d)).collect();
    println!("primes below {LIMIT}: {} found\n", reference.len());
    println!(
        "{:<6} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "scheme", "windows", "cycles", "switches", "ovf", "unf"
    );
    for (scheme, nwindows, report, primes) in &results {
        assert_eq!(primes, &reference, "{scheme} sieve output");
        println!(
            "{:<6} {:>8} {:>10} {:>10} {:>9} {:>9}",
            scheme.name(),
            nwindows,
            report.total_cycles(),
            report.stats.context_switches,
            report.stats.overflow_traps,
            report.stats.underflow_traps,
        );
    }
    println!(
        "\n14 threads: at 8 windows their total window activity exceeds the\n\
         file and NS's brute flush wins — the regime the paper fixes with\n\
         working-set scheduling (§4.6). At 24 windows the working sets fit\n\
         and the sharing schemes switch almost for free."
    );
    Ok(())
}
