//! Micro-benchmarks for ROCK's phase kernels: similarity, neighbor
//! graph, link table, merge loop and goodness evaluation. Plain
//! `std::time` timing via [`rock_bench::harness`] — run with
//! `cargo bench --bench microbench`.

use std::hint::black_box;

use rock_bench::harness::{bench, group};
use rock_core::agglomerate::{agglomerate, AgglomerateConfig};
use rock_core::goodness::{Goodness, MarketBasket};
use rock_core::links::LinkTable;
use rock_core::neighbors::NeighborGraph;
use rock_core::prelude::*;
use rock_datasets::synthetic::BlockModel;

fn dataset(n_per_block: usize) -> TransactionSet {
    BlockModel::symmetric(4, n_per_block, 30, 0.4, 0.02)
        .seed(1)
        .generate()
        .0
}

fn bench_similarity() {
    group("similarity");
    let data = dataset(50);
    let a = data.transaction(0).unwrap();
    let b = data.transaction(1).unwrap();
    let far = data.transaction(150).unwrap();
    bench("jaccard/same-block", 50, 10_000, || {
        black_box(Jaccard.sim(black_box(a), black_box(b)))
    });
    bench("jaccard/cross-block", 50, 10_000, || {
        black_box(Jaccard.sim(black_box(a), black_box(far)))
    });
}

fn bench_neighbors() {
    group("neighbors");
    for &n in &[100usize, 200] {
        let data = dataset(n);
        bench(&format!("compute/{}", data.len()), 10, 1, || {
            NeighborGraph::compute(&data, &Jaccard, 0.25, 1).unwrap()
        });
    }
}

fn bench_links() {
    group("links");
    for &n in &[100usize, 200] {
        let data = dataset(n);
        let graph = NeighborGraph::compute(&data, &Jaccard, 0.25, 1).unwrap();
        bench(&format!("compute/{}", data.len()), 10, 1, || {
            LinkTable::compute(&graph)
        });
    }
}

fn bench_agglomerate() {
    group("agglomerate");
    let good = Goodness::new(0.25, &MarketBasket).unwrap();
    for &(n_per_block, samples) in &[(125usize, 10), (500, 5)] {
        let data = dataset(n_per_block);
        let links = LinkTable::compute(&NeighborGraph::compute(&data, &Jaccard, 0.25, 1).unwrap());
        let mut config = AgglomerateConfig::new(4);
        config.record_history = false;
        bench(&format!("merge-loop/{}", data.len()), samples, 1, || {
            agglomerate(data.len(), &links, &good, &config).unwrap()
        });
    }
}

fn bench_goodness() {
    let good = Goodness::new(0.5, &MarketBasket).unwrap();
    group("goodness");
    bench("merge_goodness/cached-pow", 50, 10, || {
        let mut acc = 0.0f64;
        for n in 1..512usize {
            acc += good.merge_goodness(black_box(7), n, 512 - n);
        }
        black_box(acc)
    });
    bench("merge_goodness/large-pow", 50, 10, || {
        let mut acc = 0.0f64;
        for n in 1..64usize {
            acc += good.merge_goodness(black_box(7), n * 100, 6400 - n * 100 + 1);
        }
        black_box(acc)
    });
}

fn main() {
    bench_similarity();
    bench_neighbors();
    bench_links();
    bench_agglomerate();
    bench_goodness();
}
