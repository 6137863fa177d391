//! Runs every experiment of the harness in sequence (Table 1,
//! Figures 1, 8, 9, 10, 11, 12 and the verification sweep).
use flexer_bench::{experiments, Budget, ExperimentContext};
fn main() {
    let t = std::time::Instant::now();
    experiments::table1();
    println!();
    experiments::fig01(&ExperimentContext::from_env(1, Budget::Quick));
    println!();
    experiments::fig08(&ExperimentContext::from_env(1, Budget::Quick));
    println!();
    experiments::fig09(&ExperimentContext::from_env(1, Budget::Quick));
    println!();
    experiments::fig10(&ExperimentContext::from_env(1, Budget::Quick));
    println!();
    experiments::fig11(&ExperimentContext::from_env(1, Budget::Quick));
    println!();
    experiments::fig12(&ExperimentContext::from_env(4, Budget::Quick));
    println!();
    experiments::verify(&ExperimentContext::from_env(1, Budget::Quick));
    println!(
        "\n# all experiments completed in {:.1}s",
        t.elapsed().as_secs_f64()
    );
}
