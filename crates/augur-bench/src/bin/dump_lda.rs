//! Diagnostic: print the tape disassembly of every LDA procedure.
//! (Sweep timing lives in `sweep_throughput` and `perfbench`.)
use augur::{HostValue, Model, SessionConfig, Target};
use augurv2::{models, workloads};

fn main() {
    let corpus = workloads::lda_corpus(20, 80, 2000, 200, 1200);
    let model = Model::compile(models::LDA).expect("LDA parses");
    let s = model
        .plan(
            vec![
                HostValue::Int(30),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; 30]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        )
        .expect("LDA plans")
        .session(SessionConfig { target: Target::Cpu, seed: 21, ..Default::default() })
        .expect("LDA builds");
    for name in s.proc_names() {
        println!("== {name} ==\n{}", s.disasm(name));
    }
}
