//! Print the paper's scoreboard, every builder's rows, as `REPRODUCTION.json`:
//! `cargo run --release -q -p congest-bench --bin reproduce > REPRODUCTION.json`.

fn main() {
    let rows: Vec<_> = congest_bench::BUILDERS.iter().flat_map(|b| b()).collect();
    print!("{}", congest_bench::render(&rows));
}
