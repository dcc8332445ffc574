//! Implementation of the `delta-repair` command-line tool.
//!
//! The binary wraps the library for shell use:
//!
//! ```text
//! delta-repair --db data.tsv --program rules.dl [--semantics step] \
//!              [--apply out.tsv] [--explain] [--triggers alphabetical]
//! ```
//!
//! * `--db` — a self-describing TSV document (typed `# relation` headers,
//!   see `storage::tsv::load_document`);
//! * `--program` — delta rules in the paper's concrete syntax;
//! * `--semantics` — `independent`, `step`, `stage`, `end`, or `all`
//!   (default `all`: compare the four results side by side);
//! * `--apply OUT` — write the database repaired under the chosen
//!   semantics back to a typed TSV document;
//! * `--explain` — list the deleted tuples, not just the counts;
//! * `--triggers ORDER` — additionally simulate "after delete, delete" SQL
//!   triggers with `alphabetical` (PostgreSQL) or `creation` (MySQL)
//!   firing order.
//!
//! There is also a `lint` subcommand that runs the static analyzer
//! (`datalog::lint`) over a program without repairing anything:
//!
//! ```text
//! delta-repair lint --program rules.dl [--db data.tsv] [--json]
//! ```
//!
//! and an `explain` subcommand that prints the cost-based join plan the
//! planner chose for every rule — driver atom, probe order, estimated vs
//! actual cardinalities — from a database's live statistics:
//!
//! ```text
//! delta-repair explain --program rules.dl --db data.tsv [--json]
//! ```
//!
//! The module is a library so the parsing/reporting logic is unit-testable;
//! `main.rs` is a thin shell.

use datalog::json_escape;
use repair_core::{RepairError, RepairOutcome, RepairRequest, RepairSession, Semantics};
use std::fmt::Write as _;
use storage::{tsv, StorageError};
use triggers::FiringOrder;

/// Every way a CLI run can fail, mapped to a **distinct process exit
/// code** (documented in [`USAGE`]): no user input reaches an `unwrap`.
///
/// | variant | exit code | meaning |
/// |---------|-----------|---------|
/// | [`CliError::Help`]  | 0 | `--help` was requested |
/// | [`CliError::Usage`] | 2 | bad command line (unknown flag, missing value) |
/// | [`CliError::Io`]    | 3 | filesystem failure on `--db`/`--program`/`--apply` |
/// | [`CliError::Input`] | 4 | malformed input content (TSV, rules, `--why` tuple) |
/// | [`CliError::Repair`]| 5 | the repair engine rejected the run ([`RepairError`]) |
/// | [`CliError::Corrupt`]| 6 | a durable store failed checksum/recovery validation |
/// | [`CliError::Lint`]  | 7 | `lint` found error-level diagnostics |
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`: carries the usage text; exits 0.
    Help,
    /// Malformed command line; exits 2.
    Usage(String),
    /// Filesystem failure (the path and OS error text); exits 3.
    Io(String),
    /// Malformed input content; exits 4.
    Input(String),
    /// Engine-level failure, preserved as a typed [`RepairError`]; exits 5.
    Repair(RepairError),
    /// A `--data-dir` store is corrupt beyond what the recovery ladder can
    /// route around, preserved as the typed error; exits 6 so operators
    /// can distinguish "restore from backup" from ordinary failures.
    Corrupt(RepairError),
    /// The `lint` subcommand found error-level diagnostics (the count is
    /// carried for the message); exits 7 so CI can gate on "program has
    /// static errors" separately from every other failure class. The
    /// report itself goes to stdout before this is raised.
    Lint(usize),
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Help => 0,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Input(_) => 4,
            CliError::Repair(_) => 5,
            CliError::Corrupt(_) => 6,
            CliError::Lint(_) => 7,
        }
    }
}

/// Route a [`RepairError`] to its CLI class: unrecoverable store corruption
/// gets its own exit code, everything else is an engine error.
fn repair_to_cli(e: RepairError) -> CliError {
    match &e {
        RepairError::Storage {
            source: StorageError::Corrupt { .. },
            ..
        } => CliError::Corrupt(e),
        _ => CliError::Repair(e),
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => f.write_str(USAGE),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Input(msg) => write!(f, "{msg}"),
            CliError::Repair(e) => write!(f, "{e}"),
            CliError::Corrupt(e) => write!(f, "{e}"),
            CliError::Lint(n) => write!(f, "lint: {n} error-level finding(s)"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Repair(e) | CliError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RepairError> for CliError {
    fn from(e: RepairError) -> CliError {
        repair_to_cli(e)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// Path of the TSV database document. Optional when `--data-dir`
    /// points at an existing durable store.
    pub db: Option<String>,
    /// Durable store directory: with `--db`, initialize a new store from
    /// the TSV; alone, open (and crash-recover) the existing store.
    pub data_dir: Option<String>,
    /// Run N apply/undo churn cycles against the session before reporting
    /// (durable write traffic for crash testing).
    pub churn: Option<u64>,
    /// Path of the delta program.
    pub program: String,
    /// Semantics to run (`None` = all four).
    pub semantics: Option<Semantics>,
    /// Write the repaired database here.
    pub apply: Option<String>,
    /// Print deleted tuples.
    pub explain: bool,
    /// Also simulate triggers with this firing order.
    pub triggers: Option<FiringOrder>,
    /// Explain why this tuple (by display name, e.g. `Pub(6, x)`) is
    /// deleted under end semantics.
    pub why: Option<String>,
    /// Emit the Figure-5 provenance graph as Graphviz DOT.
    pub dot: bool,
}

/// Usage string printed on `--help` and argument errors.
pub const USAGE: &str = "\
delta-repair — declarative database repair under four semantics

USAGE:
    delta-repair --db DATA.tsv --program RULES.dl [OPTIONS]
    delta-repair lint --program RULES.dl [--db DATA.tsv] [--json]
    delta-repair explain --program RULES.dl --db DATA.tsv [--json]

OPTIONS:
    --db PATH          self-describing TSV document (typed headers);
                       optional when --data-dir holds an existing store
    --data-dir DIR     durable store: with --db, initialize DIR from the
                       TSV (checksummed WAL + snapshots); alone, open and
                       crash-recover the store already in DIR
    --churn N          run N apply/undo cycles before reporting (durable
                       write traffic for crash testing; needs --data-dir)
    --program PATH     delta rules (paper syntax; `delta R(x) :- R(x), ….`)
    --semantics NAME   independent | step | stage | end | all   [default: all]
    --apply PATH       write the repaired database (typed TSV) to PATH
    --explain          list every deleted tuple
    --triggers ORDER   also run SQL-trigger simulation: alphabetical | creation
    --why TUPLE        print the derivation tree for a tuple, e.g. --why 'Pub(6, x)'
    --dot              print the provenance graph in Graphviz DOT format
    --help             this text

LINT SUBCOMMAND:
    delta-repair lint --program RULES.dl [--db DATA.tsv] [--json]

    Statically check a delta program without repairing anything: unsafe
    variables, unused relations, dead rules, constant contradictions,
    cartesian-product joins, duplicate/subsumed rules, recursion cycles,
    and the semantics-equivalence certificate (which of the four repair
    semantics provably coincide). With --db, schema-dependent checks
    (unknown relations, arity, types) run too; --json emits the report as
    machine-readable JSON. Error-level findings exit 7. With --db the
    cartesian-join warning (W103) also reports the estimated blow-up
    factor from the database's live column statistics.

EXPLAIN SUBCOMMAND:
    delta-repair explain --program RULES.dl --db DATA.tsv [--json]

    Show the cost-based join plan chosen for every rule from the
    database's live statistics: the driver atom, the probe order with
    each step's index key, the estimator's per-step fanout and
    cardinality, and the actual number of assignments the rule produces
    on this database. --json emits one machine-readable object.

EXIT CODES:
    0    success (or --help)
    2    bad command line: unknown flag, missing value or argument
    3    filesystem failure reading --db/--program or writing --apply
    4    malformed input: TSV database, delta program, or --why tuple name
    5    repair engine error (invalid program for this schema, apply failure)
    6    corrupt --data-dir store (recovery ladder exhausted; restore a backup)
    7    lint found error-level diagnostics (report already on stdout)
";

/// Parse `argv[1..]`-style arguments.
pub fn parse_args<I, S>(args: I) -> Result<Options, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut db = None;
    let mut data_dir = None;
    let mut churn = None;
    let mut program = None;
    let mut semantics = None;
    let mut apply = None;
    let mut explain = false;
    let mut triggers = None;
    let mut why = None;
    let mut dot = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let mut value_for = |name: &str| {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg {
            "--db" => db = Some(value_for("--db")?),
            "--data-dir" => data_dir = Some(value_for("--data-dir")?),
            "--churn" => {
                let raw = value_for("--churn")?;
                churn = Some(raw.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("--churn needs a non-negative integer, got `{raw}`"))
                })?);
            }
            "--program" => program = Some(value_for("--program")?),
            "--semantics" => {
                // `Semantics::from_str` is the single source of truth for
                // the names; only the CLI-level `all` pseudo-value lives
                // here.
                semantics = match value_for("--semantics")?.as_str() {
                    "all" => Some(None),
                    other => Some(Some(
                        other
                            .parse::<Semantics>()
                            .map_err(|e| CliError::Usage(e.to_string()))?,
                    )),
                }
            }
            "--apply" => apply = Some(value_for("--apply")?),
            "--explain" => explain = true,
            "--why" => why = Some(value_for("--why")?),
            "--dot" => dot = true,
            "--triggers" => {
                triggers = Some(match value_for("--triggers")?.as_str() {
                    "alphabetical" | "postgres" | "postgresql" => FiringOrder::Alphabetical,
                    "creation" | "mysql" => FiringOrder::CreationOrder,
                    other => {
                        return Err(CliError::Usage(format!("unknown firing order `{other}`")))
                    }
                })
            }
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}`\n\n{USAGE}"
                )))
            }
        }
    }
    if db.is_none() && data_dir.is_none() {
        return Err(CliError::Usage(
            "--db is required (or --data-dir to open a durable store)".into(),
        ));
    }
    if churn.is_some() && data_dir.is_none() {
        return Err(CliError::Usage("--churn needs --data-dir".into()));
    }
    Ok(Options {
        db,
        data_dir,
        churn,
        program: program.ok_or_else(|| CliError::Usage("--program is required".into()))?,
        semantics: semantics.unwrap_or(None),
        apply,
        explain,
        triggers,
        why,
        dot,
    })
}

/// Parsed `lint` subcommand line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintOptions {
    /// Path of the delta program to lint (required).
    pub program: String,
    /// Optional TSV database: its schema enables the schema-dependent
    /// passes (unknown relations, arity, column types).
    pub db: Option<String>,
    /// Emit the report as JSON instead of human-readable lines.
    pub json: bool,
}

/// Parse the arguments *after* the `lint` subcommand word.
pub fn parse_lint_args<I, S>(args: I) -> Result<LintOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut program = None;
    let mut db = None;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let mut value_for = |name: &str| {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg {
            "--program" => program = Some(value_for("--program")?),
            "--db" => db = Some(value_for("--db")?),
            "--json" => json = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}` for lint\n\n{USAGE}"
                )))
            }
        }
    }
    Ok(LintOptions {
        program: program.ok_or_else(|| CliError::Usage("lint: --program is required".into()))?,
        db,
        json,
    })
}

/// What `lint` produced: the text to print and the structured report.
#[derive(Debug)]
pub struct LintOutput {
    /// Rendered report — human lines, or one JSON object with `--json`.
    pub rendered: String,
    /// The structured report, for callers that want the diagnostics.
    pub report: datalog::LintReport,
}

impl LintOutput {
    /// The exit status the subcommand maps to: `Err(CliError::Lint)` when
    /// any error-level diagnostic was found, `Ok(())` otherwise. The report
    /// is printed either way.
    pub fn status(&self) -> Result<(), CliError> {
        let errors = self.report.count(datalog::Severity::Error);
        if errors > 0 {
            Err(CliError::Lint(errors))
        } else {
            Ok(())
        }
    }
}

/// Run the static analyzer. Pure with respect to the filesystem: callers
/// hand in file contents. A program that fails to *parse* is a malformed
/// input (exit 4, same as the repair path); a program that parses but
/// trips validation shows up as `E…` diagnostics in the report instead.
pub fn run_lint(
    opts: &LintOptions,
    program_text: &str,
    db_text: Option<&str>,
) -> Result<LintOutput, CliError> {
    let program = datalog::parse_program(program_text)
        .map_err(|e| CliError::Input(format!("--program: {e}")))?;
    let db = db_text
        .map(|text| tsv::load_document(text).map_err(|e| CliError::Input(format!("--db: {e}"))))
        .transpose()?;
    let report = datalog::lint_with_stats(db.as_ref(), &program);
    let rendered = if opts.json {
        report.to_json()
    } else {
        report.render()
    };
    Ok(LintOutput { rendered, report })
}

/// Parsed `explain` subcommand line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplainOptions {
    /// Path of the delta program whose plans to explain (required).
    pub program: String,
    /// Path of the TSV database: the statistics the planner consulted and
    /// the instance the actual cardinalities are counted on (required).
    pub db: String,
    /// Emit the report as JSON instead of human-readable lines.
    pub json: bool,
}

/// Parse the arguments *after* the `explain` subcommand word.
pub fn parse_explain_args<I, S>(args: I) -> Result<ExplainOptions, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut program = None;
    let mut db = None;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let mut value_for = |name: &str| {
            it.next()
                .map(|v| v.as_ref().to_owned())
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg {
            "--program" => program = Some(value_for("--program")?),
            "--db" => db = Some(value_for("--db")?),
            "--json" => json = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument `{other}` for explain\n\n{USAGE}"
                )))
            }
        }
    }
    Ok(ExplainOptions {
        program: program.ok_or_else(|| CliError::Usage("explain: --program is required".into()))?,
        db: db.ok_or_else(|| {
            CliError::Usage(
                "explain: --db is required (plans are chosen from its statistics)".into(),
            )
        })?,
        json,
    })
}

/// What `explain` produced: the rendered plan report.
#[derive(Debug)]
pub struct ExplainOutput {
    /// Rendered report — human lines, or one JSON object with `--json`.
    pub rendered: String,
}

/// Show the cost-based join plan chosen for every rule: the driver atom,
/// the probe order with the index key each step uses, the estimator's
/// per-step fanout/cardinality, and the *actual* number of assignments the
/// rule produces under the Algorithm-1 enumeration (the same assignment
/// set every plan family visits, so estimate vs actual is apples to
/// apples). Pure with respect to the filesystem: callers hand in contents.
pub fn run_explain(
    opts: &ExplainOptions,
    program_text: &str,
    db_text: &str,
) -> Result<ExplainOutput, CliError> {
    let db = tsv::load_document(db_text).map_err(|e| CliError::Input(format!("--db: {e}")))?;
    let program = datalog::parse_program(program_text)
        .map_err(|e| CliError::Input(format!("--program: {e}")))?;
    let session = RepairSession::new(db, program).map_err(CliError::Repair)?;
    let db = session.db();
    let ev = session.evaluator();
    let mut actual = vec![0u64; ev.num_rules()];
    let state0 = db.initial_state();
    ev.for_each_assignment(db, &state0, datalog::Mode::Hypothetical, &mut |a| {
        actual[a.rule] += 1;
        true
    });

    let rel_name = |rel: storage::RelId| db.schema().rel(rel).name.as_str();
    let mut human = String::new();
    let mut json = String::from("{\n  \"rules\": [");
    for (ri, rule) in session.program().rules.iter().enumerate() {
        let cr = ev.compiled_rule(ri);
        let _ = writeln!(human, "rule {ri}: {rule}");
        if ri > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n    {{\"rule\": {ri}, \"text\": \"{}\", \"never_fires\": {}",
            json_escape(&rule.to_string()),
            cr.never_fires
        );
        if cr.never_fires {
            let _ = writeln!(human, "  never fires (statically empty body); no plan");
            json.push_str(", \"steps\": [], \"estimated_rows\": 0, \"actual_assignments\": 0}");
            continue;
        }
        // The served general plan, estimated at fraction 1.0: explain
        // compares the estimate against hypothetical-mode actuals, where
        // delta atoms range the full relation.
        let est = datalog::cost::estimate_order(
            db,
            &cr.atoms,
            &cr.cmps,
            cr.n_vars,
            &cr.general.order,
            1.0,
        );
        json.push_str(", \"steps\": [");
        for (k, step) in est.steps.iter().enumerate() {
            let atom = &cr.atoms[step.atom];
            let probe = &cr.general.probes[k];
            let name = rel_name(atom.rel);
            let delta = if atom.is_delta { "delta " } else { "" };
            let keys: Vec<&str> = probe
                .key_cols
                .iter()
                .map(|&c| db.schema().rel(atom.rel).attrs[c].name.as_str())
                .collect();
            let access = if keys.is_empty() {
                "scan".to_owned()
            } else {
                format!("probe ({})", keys.join(", "))
            };
            let role = if k == 0 { "driver" } else { "probe " };
            let atom_label = format!("{delta}{name}");
            let _ = writeln!(
                human,
                "  {role}  {atom_label:<22} {access:<24} est fanout {:>10.2}  est rows {:>10.2}",
                step.fanout, step.rows
            );
            if k > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "\n      {{\"atom\": {}, \"relation\": \"{}\", \"delta\": {}, \"driver\": {}, \
                 \"probe\": [{}], \"est_fanout\": {}, \"est_rows\": {}}}",
                step.atom,
                json_escape(name),
                atom.is_delta,
                k == 0,
                keys.iter()
                    .map(|k| format!("\"{}\"", json_escape(k)))
                    .collect::<Vec<_>>()
                    .join(", "),
                step.fanout,
                step.rows,
            );
        }
        let est_rows = est.steps.last().map_or(0.0, |s| s.rows);
        let _ = writeln!(
            human,
            "  estimated {est_rows:.2} rows; actual {} assignment(s)",
            actual[ri]
        );
        let _ = write!(
            json,
            "\n    ], \"estimated_rows\": {est_rows}, \"actual_assignments\": {}}}",
            actual[ri]
        );
    }
    json.push_str("\n  ]\n}\n");
    Ok(ExplainOutput {
        rendered: if opts.json { json } else { human },
    })
}

/// Everything the run produced, ready for printing or inspection.
#[derive(Debug)]
pub struct RunOutput {
    /// Per-semantics outcomes, in the requested order.
    pub results: Vec<RepairOutcome>,
    /// The report text.
    pub report: String,
    /// The repaired document, when `--apply` was requested.
    pub applied: Option<String>,
}

/// Load inputs, repair, and render the report. Pure with respect to the
/// filesystem: callers hand in file *contents*.
pub fn run(opts: &Options, db_text: &str, program_text: &str) -> Result<RunOutput, CliError> {
    let db = tsv::load_document(db_text).map_err(|e| CliError::Input(format!("--db: {e}")))?;
    let program = datalog::parse_program(program_text)
        .map_err(|e| CliError::Input(format!("--program: {e}")))?;
    // Schema-level rejection of the program is an engine error (exit 5),
    // preserved as the typed `RepairError` rather than a flattened string.
    let mut session = RepairSession::new(db, program).map_err(CliError::Repair)?;
    run_session(opts, &mut session)
}

/// Build the session for a `--data-dir` run: initialize a fresh durable
/// store from the TSV when `db_text` is given, otherwise open (and
/// crash-recover) the store already in the directory. Unrecoverable
/// corruption maps to [`CliError::Corrupt`] (exit 6).
pub fn durable_session(
    opts: &Options,
    db_text: Option<&str>,
    program_text: &str,
) -> Result<RepairSession, CliError> {
    let dir = opts
        .data_dir
        .as_deref()
        .ok_or_else(|| CliError::Usage("--data-dir is required for a durable run".into()))?;
    let program = datalog::parse_program(program_text)
        .map_err(|e| CliError::Input(format!("--program: {e}")))?;
    match db_text {
        Some(text) => {
            let db = tsv::load_document(text).map_err(|e| CliError::Input(format!("--db: {e}")))?;
            RepairSession::create_durable(db, program, dir).map_err(repair_to_cli)
        }
        None => RepairSession::open_durable(dir, program).map_err(repair_to_cli),
    }
}

/// Repair and render the report over an existing session (in-memory or
/// durable). The `--churn` cycles run first, so the reported counts are
/// post-churn.
pub fn run_session(opts: &Options, session: &mut RepairSession) -> Result<RunOutput, CliError> {
    let program = session.program().clone();
    let mut report = String::new();
    if let Some(r) = session.recovery_report() {
        if r.degraded() {
            let _ = writeln!(
                report,
                "recovery: {} batches replayed, {} bytes truncated, fallbacks: {}",
                r.batches_replayed,
                r.truncated_bytes,
                r.fallbacks.join("; ")
            );
        }
    }
    if let Some(cycles) = opts.churn {
        for _ in 0..cycles {
            let outcome = session.run(Semantics::End);
            outcome.apply(session).map_err(repair_to_cli)?;
            session.undo().map_err(repair_to_cli)?;
        }
        let _ = writeln!(report, "churn: {cycles} apply/undo cycles committed");
    }
    let _ = writeln!(
        report,
        "database: {} tuples in {} relations; program: {} rules",
        session.db().total_rows(),
        session.db().schema().len(),
        program.len()
    );
    if session.is_stable() {
        let _ = writeln!(report, "database is already stable: nothing to repair");
    }
    if let Some(recursion) = datalog::recursion_diagnostic(&program) {
        let _ = writeln!(report, "{recursion}");
    }

    let wanted: Vec<Semantics> = match opts.semantics {
        Some(s) => vec![s],
        None => Semantics::ALL.to_vec(),
    };
    let mut results = Vec::with_capacity(wanted.len());
    for sem in &wanted {
        let r = session
            .repair(&RepairRequest::new(*sem))
            .map_err(CliError::Repair)?;
        // The lazy Independent loop's check rounds; a request the end
        // fixpoint served under a certificate ran none.
        let rounds = match r.optimality().rounds {
            0 => String::new(),
            n => format!("  rounds {n}"),
        };
        let _ = writeln!(
            report,
            "{:<12} |S| = {:<6} eval {:>9.2?}  process {:>9.2?}  solve {:>9.2?}{}{}",
            sem.to_string(),
            r.size(),
            r.breakdown().eval,
            r.breakdown().process,
            r.breakdown().solve,
            rounds,
            if r.proven_optimal() {
                ""
            } else {
                "  (heuristic)"
            },
        );
        if opts.explain {
            for &t in r.deleted() {
                let _ = writeln!(report, "    - {}", session.db().display_tuple(t));
            }
        }
        results.push(r);
    }

    if let Some(order) = opts.triggers {
        let trigs = triggers::triggers_from_program(&program);
        let run = triggers::run_triggers(session.db(), session.evaluator(), &trigs, order);
        let _ = writeln!(
            report,
            "triggers     |S| = {:<6} ({} activations, {:?} order, stable: {})",
            run.deleted.len(),
            run.activations,
            order,
            run.stable
        );
        if opts.explain {
            for &t in &run.deleted {
                let _ = writeln!(report, "    - {}", session.db().display_tuple(t));
            }
        }
    }

    if let Some(name) = &opts.why {
        let target = session
            .db()
            .all_tuple_ids()
            .find(|&t| session.db().display_tuple(t) == *name)
            .ok_or_else(|| {
                CliError::Input(format!("--why: no tuple named `{name}` in the database"))
            })?;
        match session.explain(target) {
            Some(tree) => {
                let _ = writeln!(report, "derivation of Δ {name}:");
                report.push_str(&tree.render(session.db()));
            }
            None => {
                let _ = writeln!(report, "{name} is never deleted under end semantics");
            }
        }
    }
    if opts.dot {
        report.push_str(&session.provenance_dot());
    }

    let applied = if opts.apply.is_some() {
        // `wanted` is never empty, so neither is `results`; keep the access
        // checked anyway — user input must not be able to reach a panic.
        let chosen = results
            .first()
            .ok_or_else(|| CliError::Usage("--apply needs at least one semantics".into()))?;
        let total = session.db().total_rows();
        let _ = writeln!(
            report,
            "applying {} repair: {} of {} tuples remain",
            chosen.semantics(),
            total - chosen.size(),
            total
        );
        // Commit through the session: the delete-set leaves the database
        // durably (indexes maintained incrementally) and the live tuples
        // are what gets serialized.
        chosen.apply(session).map_err(repair_to_cli)?;
        Some(tsv::to_tsv_typed(session.db()))
    } else {
        None
    };

    Ok(RunOutput {
        results,
        report,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DB: &str = "\
# relation Grant(gid: int, name: string)
1\tNSF
2\tERC
# relation AuthGrant(aid: int, gid: int)
2\t1
4\t2
5\t2
";

    const RULES: &str = "\
delta Grant(g, n) :- Grant(g, n), n = 'ERC'.
delta AuthGrant(a, g) :- AuthGrant(a, g), delta Grant(g, n).
";

    fn base_opts() -> Options {
        Options {
            db: Some("db.tsv".into()),
            data_dir: None,
            churn: None,
            program: "rules.dl".into(),
            semantics: None,
            apply: None,
            explain: false,
            triggers: None,
            why: None,
            dot: false,
        }
    }

    #[test]
    fn parse_args_happy_path() {
        let opts = parse_args([
            "--db",
            "d.tsv",
            "--program",
            "p.dl",
            "--semantics",
            "step",
            "--explain",
            "--apply",
            "out.tsv",
            "--triggers",
            "mysql",
        ])
        .unwrap();
        assert_eq!(opts.semantics, Some(Semantics::Step));
        assert!(opts.explain);
        assert_eq!(opts.apply.as_deref(), Some("out.tsv"));
        assert_eq!(opts.triggers, Some(FiringOrder::CreationOrder));
    }

    #[test]
    fn parse_args_errors() {
        assert!(parse_args(["--db", "x"]).is_err(), "missing --program");
        assert!(parse_args(["--program", "x"]).is_err(), "missing --db");
        let missing = parse_args(["--db", "d", "--program"]).unwrap_err();
        assert!(matches!(missing, CliError::Usage(_)), "missing value");
        assert_eq!(missing.exit_code(), 2);
        assert!(parse_args(["--semantics", "vibes", "--db", "a", "--program", "b"]).is_err());
        assert!(parse_args(["--frobnicate"]).is_err());
        assert!(parse_args(["--help"]).is_err(), "help via Err(Help)");
    }

    #[test]
    fn errors_map_to_distinct_documented_exit_codes() {
        // Usage errors: exit 2.
        let usage = parse_args(["--frobnicate"]).unwrap_err();
        assert!(matches!(usage, CliError::Usage(_)));
        assert_eq!(usage.exit_code(), 2);
        // Help: exit 0, rendering the usage text.
        let help = parse_args(["--help"]).unwrap_err();
        assert_eq!(help.exit_code(), 0);
        assert!(help.to_string().contains("EXIT CODES"));
        // Malformed inputs: exit 4.
        let bad_db = run(&base_opts(), "not a document", RULES).unwrap_err();
        assert!(matches!(bad_db, CliError::Input(_)));
        assert_eq!(bad_db.exit_code(), 4);
        let bad_rules = run(&base_opts(), DB, "garbage !!").unwrap_err();
        assert_eq!(bad_rules.exit_code(), 4);
        let mut opts = base_opts();
        opts.why = Some("NoSuch(0)".into());
        let bad_why = run(&opts, DB, RULES).unwrap_err();
        assert_eq!(bad_why.exit_code(), 4);
        // Engine rejection (valid syntax, wrong schema): exit 5, with the
        // typed RepairError preserved as the source.
        let engine = run(&base_opts(), DB, "delta Nope(x) :- Nope(x).").unwrap_err();
        assert!(matches!(
            engine,
            CliError::Repair(repair_core::RepairError::Datalog { .. })
        ));
        assert_eq!(engine.exit_code(), 5);
        use std::error::Error as _;
        assert!(engine.source().is_some(), "RepairError kept as source");
        // Io: exit 3 (constructed directly; main.rs owns the filesystem).
        assert_eq!(CliError::Io("cannot read x".into()).exit_code(), 3);
        // Lint findings: exit 7.
        assert_eq!(CliError::Lint(2).exit_code(), 7);
        // Every failure variant maps to its own nonzero code; only Help
        // shares 0 with success.
        let mut codes: Vec<u8> = [
            CliError::Help,
            CliError::Usage(String::new()),
            CliError::Io(String::new()),
            CliError::Input(String::new()),
            CliError::Repair(repair_core::RepairError::NothingToUndo),
            CliError::Corrupt(repair_core::RepairError::NothingToUndo),
            CliError::Lint(1),
        ]
        .iter()
        .map(CliError::exit_code)
        .collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 7, "exit codes must stay distinct");
        assert!(codes.iter().skip(1).all(|&c| c != 0 && c != 1));
    }

    #[test]
    fn lint_args_parse_and_validate() {
        let opts = parse_lint_args(["--program", "p.dl", "--db", "d.tsv", "--json"]).unwrap();
        assert_eq!(opts.program, "p.dl");
        assert_eq!(opts.db.as_deref(), Some("d.tsv"));
        assert!(opts.json);
        // --program is mandatory; unknown flags and missing values are
        // usage errors; --help works inside the subcommand too.
        assert!(parse_lint_args(["--db", "d.tsv"]).is_err());
        assert!(parse_lint_args(["--program"]).is_err());
        assert!(parse_lint_args(["--program", "p", "--frobnicate"]).is_err());
        assert!(matches!(
            parse_lint_args(["--help"]).unwrap_err(),
            CliError::Help
        ));
    }

    #[test]
    fn lint_clean_program_exits_zero() {
        let opts = parse_lint_args(["--program", "p.dl", "--db", "d.tsv"]).unwrap();
        let out = run_lint(&opts, RULES, Some(DB)).unwrap();
        assert!(out.status().is_ok(), "{}", out.rendered);
        assert!(out.rendered.contains("certificate:"), "{}", out.rendered);
        assert!(out.rendered.contains("0 error(s)"), "{}", out.rendered);
    }

    #[test]
    fn lint_error_findings_map_to_exit_seven() {
        // Unknown relation against the schema: an E001 diagnostic, not a
        // hard failure — the report renders, then status() raises exit 7.
        let opts = parse_lint_args(["--program", "p.dl", "--db", "d.tsv"]).unwrap();
        let out = run_lint(&opts, "delta Nope(x) :- Nope(x).", Some(DB)).unwrap();
        assert!(out.rendered.contains("E001"), "{}", out.rendered);
        let err = out.status().unwrap_err();
        assert!(matches!(err, CliError::Lint(_)));
        assert_eq!(err.exit_code(), 7);
        // Without --db the schema passes are skipped and the same program
        // is clean (nothing else is wrong with it).
        let no_db = parse_lint_args(["--program", "p.dl"]).unwrap();
        let out = run_lint(&no_db, "delta Nope(x) :- Nope(x).", None).unwrap();
        assert!(out.status().is_ok(), "{}", out.rendered);
        // A parse failure is malformed input (exit 4), like the repair path.
        let bad = run_lint(&no_db, "garbage !!", None).unwrap_err();
        assert_eq!(bad.exit_code(), 4);
    }

    #[test]
    fn lint_with_db_quantifies_cartesian_joins() {
        // Grant and AuthGrant share no variable: 2 components. With the
        // fixture database (2 Grant rows, 3 AuthGrant rows) the cross
        // product multiplies the bigger component by the smaller one's
        // estimated 2 rows.
        let cartesian = "delta Grant(g, n) :- Grant(g, n), AuthGrant(a, b).";
        let opts = parse_lint_args(["--program", "p.dl", "--db", "d.tsv"]).unwrap();
        let out = run_lint(&opts, cartesian, Some(DB)).unwrap();
        assert!(out.rendered.contains("W103"), "{}", out.rendered);
        assert!(
            out.rendered
                .contains("estimated blow-up ×2.0 from live statistics"),
            "{}",
            out.rendered
        );
        // Without a database the warning stays purely syntactic.
        let no_db = parse_lint_args(["--program", "p.dl"]).unwrap();
        let out = run_lint(&no_db, cartesian, None).unwrap();
        assert!(out.rendered.contains("W103"), "{}", out.rendered);
        assert!(!out.rendered.contains("blow-up"), "{}", out.rendered);
    }

    #[test]
    fn explain_args_parse_and_validate() {
        let opts = parse_explain_args(["--program", "p.dl", "--db", "d.tsv", "--json"]).unwrap();
        assert_eq!(opts.program, "p.dl");
        assert_eq!(opts.db, "d.tsv");
        assert!(opts.json);
        // Both --program and --db are mandatory: plans come from live stats.
        assert!(parse_explain_args(["--db", "d.tsv"]).is_err());
        assert!(parse_explain_args(["--program", "p.dl"]).is_err());
        assert!(parse_explain_args(["--program", "p", "--frobnicate"]).is_err());
        assert!(matches!(
            parse_explain_args(["--help"]).unwrap_err(),
            CliError::Help
        ));
    }

    #[test]
    fn explain_reports_driver_probe_order_and_actuals() {
        let opts = parse_explain_args(["--program", "p.dl", "--db", "d.tsv"]).unwrap();
        let out = run_explain(&opts, RULES, DB).unwrap();
        // Every rule gets a plan with a driver step and an estimate/actual
        // summary line; the cascade rule's second step probes on the join
        // column instead of scanning.
        assert!(out.rendered.contains("rule 0:"), "{}", out.rendered);
        assert!(out.rendered.contains("driver"), "{}", out.rendered);
        assert!(out.rendered.contains("probe (gid)"), "{}", out.rendered);
        // Rule 0 matches the one ERC grant; under the Algorithm-1
        // enumeration rule 1's delta atom ranges over every Grant tuple, so
        // it joins all three AuthGrant rows.
        assert!(
            out.rendered.contains("actual 1 assignment(s)"),
            "{}",
            out.rendered
        );
        assert!(
            out.rendered.contains("actual 3 assignment(s)"),
            "{}",
            out.rendered
        );
    }

    #[test]
    fn explain_json_is_structured() {
        let opts = parse_explain_args(["--program", "p.dl", "--db", "d.tsv", "--json"]).unwrap();
        let out = run_explain(&opts, RULES, DB).unwrap();
        assert!(out.rendered.starts_with('{'), "{}", out.rendered);
        for key in [
            "\"rules\"",
            "\"steps\"",
            "\"driver\"",
            "\"probe\"",
            "\"est_fanout\"",
            "\"estimated_rows\"",
            "\"actual_assignments\"",
        ] {
            assert!(out.rendered.contains(key), "{key} in {}", out.rendered);
        }
        // Malformed inputs map to the documented exit codes, same as the
        // repair path.
        let bad = run_explain(&opts, "garbage !!", DB).unwrap_err();
        assert_eq!(bad.exit_code(), 4);
        let bad = run_explain(&opts, RULES, "not a document").unwrap_err();
        assert_eq!(bad.exit_code(), 4);
    }

    #[test]
    fn lint_json_is_structured() {
        let opts = parse_lint_args(["--program", "p.dl", "--json"]).unwrap();
        let out = run_lint(&opts, "delta R(x) :- R(x), S(y).", None).unwrap();
        assert!(out.rendered.starts_with('{'), "{}", out.rendered);
        assert!(out.rendered.contains("\"W103\""), "{}", out.rendered);
        assert!(out.rendered.contains("\"certificate\""), "{}", out.rendered);
    }

    #[test]
    fn corrupt_store_errors_get_their_own_exit_code() {
        // The From impl routes store corruption to exit 6, every other
        // engine failure to exit 5.
        let corrupt = repair_core::RepairError::Storage {
            context: "open durable store".into(),
            source: StorageError::Corrupt {
                path: "/x/snap-0.drs".into(),
                detail: "checksum mismatch".into(),
            },
        };
        let cli: CliError = corrupt.into();
        assert!(matches!(cli, CliError::Corrupt(_)));
        assert_eq!(cli.exit_code(), 6);
        use std::error::Error as _;
        assert!(cli.source().is_some(), "typed error preserved");
        let plain: CliError = repair_core::RepairError::NothingToUndo.into();
        assert_eq!(plain.exit_code(), 5);
    }

    #[test]
    fn data_dir_and_churn_flags_parse_and_validate() {
        // --data-dir alone is enough: --db becomes optional.
        let opts = parse_args([
            "--data-dir",
            "/var/store",
            "--program",
            "p.dl",
            "--churn",
            "3",
        ])
        .unwrap();
        assert_eq!(opts.db, None);
        assert_eq!(opts.data_dir.as_deref(), Some("/var/store"));
        assert_eq!(opts.churn, Some(3));
        // --db + --data-dir initializes a store from the TSV.
        let opts = parse_args(["--db", "d.tsv", "--data-dir", "s", "--program", "p"]).unwrap();
        assert_eq!(opts.db.as_deref(), Some("d.tsv"));
        // Neither --db nor --data-dir: usage error.
        let err = parse_args(["--program", "p.dl"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        // --churn without --data-dir, or with garbage: usage errors.
        assert!(parse_args(["--db", "d", "--program", "p", "--churn", "2"]).is_err());
        assert!(parse_args(["--data-dir", "s", "--program", "p", "--churn", "x"]).is_err());
    }

    #[test]
    fn churn_cycles_leave_the_database_unchanged() {
        let mut opts = base_opts();
        opts.churn = Some(2);
        opts.data_dir = Some("unused-by-run".into());
        opts.semantics = Some(Semantics::End);
        // run() serves in-memory sessions; churn works there too.
        let out = run(&opts, DB, RULES).unwrap();
        assert!(out.report.contains("churn: 2 apply/undo cycles"));
        assert!(out.report.contains("5 tuples"), "{}", out.report);
        assert_eq!(out.results[0].size(), 3, "churn is net-zero");
    }

    #[test]
    fn run_all_semantics() {
        let out = run(&base_opts(), DB, RULES).unwrap();
        assert_eq!(out.results.len(), 4);
        // Pure cascade: all four agree on {g2, ag2, ag3}.
        for r in &out.results {
            assert_eq!(r.size(), 3, "{}", r.semantics());
        }
        assert!(out.report.contains("independent"));
        assert!(out.report.contains("|S| = 3"));
    }

    #[test]
    fn independent_line_reports_check_rounds() {
        // Not a pure cascade, so the lazy loop serves it: round 1 finds
        // both ERC grant links, deleting Grant(2, ERC) hits both, and
        // round 2 confirms it stabilizes.
        let mut opts = base_opts();
        opts.semantics = Some(Semantics::Independent);
        let rules = "delta AuthGrant(a, g) :- AuthGrant(a, g), Grant(g, n), n = 'ERC'.\n";
        let out = run(&opts, DB, rules).unwrap();
        assert!(out.report.contains("|S| = 1"), "{}", out.report);
        assert!(out.report.contains("rounds 2"), "{}", out.report);
    }

    #[test]
    fn run_single_semantics_with_apply_and_explain() {
        let mut opts = base_opts();
        opts.semantics = Some(Semantics::End);
        opts.apply = Some("out.tsv".into());
        opts.explain = true;
        let out = run(&opts, DB, RULES).unwrap();
        assert_eq!(out.results.len(), 1);
        assert!(out.report.contains("- Grant(2, ERC)"));
        let doc = out.applied.expect("apply requested");
        assert!(doc.contains("1\tNSF"));
        assert!(!doc.contains("2\tERC"));
        // The applied document is itself loadable and stable.
        let repaired = tsv::load_document(&doc).unwrap();
        assert_eq!(repaired.total_rows(), 2);
    }

    #[test]
    fn run_matches_non_ascii_string_constants() {
        let db = "# relation Grant(gid: int, name: string)\n1\tNSF\n3\tZürich\n";
        let mut opts = base_opts();
        opts.semantics = Some(Semantics::End);
        opts.apply = Some("out.tsv".into());
        opts.explain = true;
        let rules = "delta Grant(g, n) :- Grant(g, n), n = 'Zürich'.";
        let out = run(&opts, db, rules).unwrap();
        assert_eq!(out.results[0].size(), 1, "{}", out.report);
        assert!(out.report.contains("- Grant(3, Zürich)"), "{}", out.report);
        let doc = out.applied.expect("apply requested");
        assert!(doc.contains("1\tNSF"));
        assert!(!doc.contains("Zürich"), "{doc}");
    }

    #[test]
    fn run_reports_stability() {
        let stable_rules = "delta Grant(g, n) :- Grant(g, n), n = 'NIH'.";
        let out = run(&base_opts(), DB, stable_rules).unwrap();
        assert!(out.report.contains("already stable"));
        assert!(out.results.iter().all(|r| r.size() == 0));
    }

    #[test]
    fn run_with_triggers() {
        let mut opts = base_opts();
        opts.triggers = Some(FiringOrder::Alphabetical);
        let out = run(&opts, DB, RULES).unwrap();
        assert!(out.report.contains("triggers"));
        assert!(out.report.contains("stable: true"));
    }

    /// The report's I202 lines (the lint diagnostic, verbatim).
    fn recursion_lines(report: &str) -> Vec<&str> {
        report.lines().filter(|l| l.contains("[I202]")).collect()
    }

    #[test]
    fn run_reports_recursion_as_the_i202_diagnostic() {
        // The recursive chain of tests/recursion.rs: ΔNode depends on itself.
        let db = "# relation Node(v: int)\n0\n1\n2\n# relation Edge(u: int, v: int)\n0\t1\n1\t2\n";
        let rules = "delta Node(v) :- Node(v), v = 0.
                     delta Node(v) :- Node(v), Edge(u, v), delta Node(u).";
        let out = run(&base_opts(), db, rules).unwrap();
        assert_eq!(
            recursion_lines(&out.report),
            vec!["info[I202]: program is recursive through delta relations: Node -> Node"]
        );
    }

    #[test]
    fn run_on_figure_2_reports_no_recursion() {
        let db = tsv::to_tsv_typed(&repair_core::testkit::figure1_instance());
        let rules = repair_core::testkit::figure2_program().to_string();
        let out = run(&base_opts(), &db, &rules).unwrap();
        assert_eq!(out.results[0].size(), 3, "Figure 1's independent repair");
        assert!(recursion_lines(&out.report).is_empty(), "{}", out.report);
    }

    #[test]
    fn run_rejects_bad_inputs() {
        assert!(run(&base_opts(), "not a document", RULES).is_err());
        assert!(run(&base_opts(), DB, "delta Nope(x) :- Nope(x).").is_err());
        assert!(run(&base_opts(), DB, "garbage !!").is_err());
    }
}
