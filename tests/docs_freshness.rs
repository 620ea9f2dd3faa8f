//! EXPERIMENTS.md and the experiment registry must name the same
//! experiments: every registry entry has a section whose heading tags
//! it, and every backticked tag in a heading is a registry entry, a
//! `finepack-sim` command that `help` lists, an example, or a path in
//! the repository.

use std::path::Path;

use cli::EXPERIMENT_REGISTRY;

const EXPERIMENTS_MD: &str = include_str!("../EXPERIMENTS.md");

/// The backticked spans of every Markdown heading.
fn heading_tags() -> Vec<&'static str> {
    EXPERIMENTS_MD
        .lines()
        .filter(|line| line.starts_with('#'))
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .collect()
}

/// The command names `finepack-sim help` lists under `COMMANDS:`: the
/// lines indented by exactly two spaces (deeper lines are options).
fn help_commands() -> Vec<String> {
    let help = cli::run(["help"]).expect("help always answers");
    help.lines()
        .skip_while(|line| *line != "COMMANDS:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter(|line| !line.starts_with("   "))
        .filter_map(|line| line.split_whitespace().next())
        .map(String::from)
        .collect()
}

#[test]
fn every_experiment_has_a_tagged_section() {
    let tags = heading_tags();
    for (name, _, _) in EXPERIMENT_REGISTRY {
        assert!(
            tags.contains(&name),
            "EXPERIMENTS.md has no heading tagged `{name}`"
        );
    }
}

#[test]
fn every_heading_tag_names_something_real() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commands = help_commands();
    assert!(commands.iter().any(|c| c == "reproduce"), "{commands:?}");
    for tag in heading_tags() {
        let command = tag
            .strip_prefix("finepack-sim ")
            .and_then(|rest| rest.split_whitespace().next());
        let known = EXPERIMENT_REGISTRY.iter().any(|(name, _, _)| *name == tag)
            || command.is_some_and(|cmd| commands.iter().any(|c| c == cmd))
            || root.join("examples").join(format!("{tag}.rs")).exists()
            || root.join(tag).exists();
        assert!(
            known,
            "EXPERIMENTS.md heading tag `{tag}` is not a registry entry, \
             a `finepack-sim` command that `help` lists, an example or a path"
        );
    }
}
