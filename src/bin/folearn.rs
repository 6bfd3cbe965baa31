//! The `folearn` command-line tool: learn first-order queries, model-check
//! sentences, play the splitter game, and census types over graphs in the
//! text exchange format. See `folearn_suite::cli` for details and
//! `folearn --help` for usage.

use std::process::ExitCode;

const HELP: &str = "\
folearn — parameterized learning of first-order queries (PODS 2022)

USAGE:
  folearn learn      --graph G.txt --examples E.txt [--ell N] [--q N]
                     [--solver brute|nd|local]
                     [--mode global|local=R|counting=CAP|local-counting=R,CAP]
                     [--threads N (0 = one per core, max 256)] [--prune on|off]
  folearn modelcheck --graph G.txt --formula \"<sentence>\" [--engine tree|vm]
  folearn splitter   --graph G.txt [--radius R]
  folearn types      --graph G.txt [--q N] [--k N]
  folearn dot        --graph G.txt
  folearn serve      [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
                     [--max-requests N] [--addr-file PATH] [--max-line BYTES]
                     [--idle-ms MS] [--max-conns N] [--data-dir DIR]
                     [--snapshot-every N (fewest WAL appends between
                      compaction checks; a check compacts only when dead
                      records outnumber live ones)]
  folearn route      --backends H:P,H:P,... [--replicas R] [--hedge-ms MS]
                     [--vnodes N] [--eject-after N] [--addr HOST:PORT]
                     [--addr-file PATH] [--timeout-ms MS] [--retries N]
                     [--retry-seed N] [--trace on|off]
  folearn client     --addr HOST:PORT --action ACTION ...
                     [--timeout-ms MS (0 = none)] [--retries N (0 = none)]
                     [--retry-seed N]
                     ACTION: ping | register --graph G.txt
                           | solve --graph G.txt --examples E.txt
                                   [--ell N] [--q N] [--solver brute|nd]
                                   [--mode ...] [--threads N] [--prune on|off]
                                   [--trace-out T.jsonl]
                           | evaluate --graph G.txt --examples E.txt --hypothesis HEX
                           | modelcheck --graph G.txt --formula \"<sentence>\"
                                        [--engine tree|vm]
                           | stats | shutdown
  folearn loadgen    --addr H:P[,H:P...] --graph G.txt [--connections N]
                     [--requests N] [--seed N] [--pool N] [--ell N] [--q N]
                     [--timeout-ms MS] [--retries N] [--retry-seed N]
  folearn top        --addr HOST:PORT [--once] [--interval-ms MS]
                     [--iterations N] [--timeout-ms MS] [--retries N]

Graph files use the line format:
  colors Red Blue
  vertices 5
  edge 0 1
  color 0 Red
Example files label tuples, one per line:  '+ 3'  or  '- 2 4'
The server speaks newline-delimited JSON over TCP; see README.md
(\"The folearn server\") for the wire format.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match folearn_suite::cli::run(command, &args[1..]) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::HELP;

    #[test]
    fn help_lists_the_engine_flag_everywhere_it_is_parsed() {
        // `--engine` is read by modelcheck and the client's modelcheck
        // action (see `cli::parse_engine`); the usage text must keep
        // advertising it for each, and for nothing else.
        assert_eq!(
            HELP.matches("[--engine tree|vm]").count(),
            2,
            "usage text drifted from the CLI's --engine surface"
        );
        for backend in ["tree", "vm"] {
            assert!(
                backend.parse::<folearn_logic::vm::EvalEngine>().is_ok(),
                "HELP advertises engine {backend:?} but the parser rejects it"
            );
        }
    }
}
