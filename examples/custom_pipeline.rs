//! Build your own multi-threaded application on the runtime: a
//! three-stage word-frequency pipeline, with every procedure call mapped
//! onto the simulated register windows.
//!
//! ```sh
//! cargo run --release --example custom_pipeline
//! ```

use regwin::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const TEXT: &str = "the quick brown fox jumps over the lazy dog \
                    the dog barks and the fox runs over the hill \
                    the quick dog naps under the brown hill";

fn main() -> Result<(), RtError> {
    let mut sim = Simulation::new(8, SchemeKind::Sp)?;
    let raw = sim.add_stream("raw-bytes", 8, 1);
    let words = sim.add_stream("words", 8, 1);
    let counts: Arc<Mutex<BTreeMap<String, u32>>> = Arc::new(Mutex::new(BTreeMap::new()));

    // Stage 1: a "file reader" copying the text into the pipeline.
    sim.spawn_async("reader", async move |ctx| {
        for chunk in TEXT.as_bytes().chunks(4) {
            ctx.call(async |ctx| {
                ctx.compute(2);
                ctx.write_all(raw, chunk).await
            })
            .await?;
        }
        ctx.close_writer(raw)
    });

    // Stage 2: a tokenizer emitting newline-separated words.
    sim.spawn_async("tokenizer", async move |ctx| {
        let mut word = Vec::new();
        loop {
            let b = ctx
                .call(async |ctx| {
                    ctx.compute(1);
                    ctx.read_byte(raw).await
                })
                .await?;
            match b {
                Some(b) if b.is_ascii_alphabetic() => word.push(b),
                byte => {
                    if !word.is_empty() {
                        let w = std::mem::take(&mut word);
                        ctx.call(async |ctx| {
                            ctx.compute(w.len() as u64);
                            ctx.write_all(words, &w).await?;
                            ctx.write_byte(words, b'\n').await
                        })
                        .await?;
                    }
                    if byte.is_none() {
                        return ctx.close_writer(words);
                    }
                }
            }
        }
    });

    // Stage 3: the counter.
    let counts2 = Arc::clone(&counts);
    sim.spawn_async("counter", async move |ctx| {
        let mut word = String::new();
        loop {
            let b = ctx
                .call(async |ctx| {
                    ctx.compute(1);
                    ctx.read_byte(words).await
                })
                .await?;
            match b {
                Some(b'\n') => {
                    let w = std::mem::take(&mut word);
                    ctx.call(async |ctx| {
                        ctx.compute(3 + w.len() as u64);
                        *counts2.lock().expect("counts poisoned").entry(w).or_insert(0) += 1;
                        Ok(())
                    })
                    .await?;
                }
                Some(b) => word.push(b as char),
                None => return Ok(()),
            }
        }
    });

    let report = sim.run()?;
    println!("{report}");
    let counts = counts.lock().expect("counts poisoned");
    let mut pairs: Vec<_> = counts.iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    println!("top words:");
    for (w, c) in pairs.iter().take(5) {
        println!("  {c:>2} × {w}");
    }
    assert_eq!(counts["the"], 7);
    Ok(())
}
