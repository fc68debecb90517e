fn main() {
    std::process::exit(gallatin_benchmark::cli::main(std::env::args().skip(1).collect()));
}
