//! The one figure driver: `pi2fig <id>... | all | list` prints rows of
//! [`pi2_bench::figures::FIGURES`] to stdout, byte for byte what
//! `results/<id>.txt` archives. `all` is every archived row in table
//! order; a sweep that several rows print runs once per process.

use pi2_bench::figures::{select, Knobs, Session, FIGURES};
use std::io::{self, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        for fig in FIGURES {
            println!("{}", fig.list_line());
        }
        return;
    }
    let picked = select(&args).unwrap_or_else(|e| {
        eprintln!("pi2fig: {e}");
        exit(2);
    });
    let run = Session::new(Knobs::from_env());
    let mut out = io::stdout().lock();
    for fig in picked {
        if let Some(note) = fig.ignored(&run.knobs) {
            eprintln!("pi2fig: {note}");
        }
        if let Err(e) = fig.render(&run, &mut out).and_then(|()| out.flush()) {
            eprintln!("pi2fig: {}: {e}", fig.id);
            exit(1);
        }
    }
}
