//! A1 — Algorithm 1 conformance: line-by-line behavioural checks of the
//! Novelty-based Genetic Algorithm with Multiple Solutions against the
//! paper's pseudocode, using an instrumented evaluator as the oracle, and
//! the engine's generation held bit for bit to a plain reference loop.

use essns_repro::ess_ns::algorithm::NoveltyGaOutcome;
use essns_repro::ess_ns::{
    BehaviourSpace, NoveltyGa, NoveltyGaConfig, NsGenStats, ScoringPolicy, StopReason,
};
use evoalg::individual::{random_rows, Individual};
use evoalg::novelty::{local_competition_score, novelty_score};
use evoalg::operators::uniform_mutation;
use evoalg::selection::RouletteWheel;
use evoalg::{BestSet, NoveltyArchive};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared evaluation log: every `(genome, fitness)` pair ever scored.
type EvalLog = Rc<RefCell<Vec<(Vec<f64>, f64)>>>;

/// An instrumented objective that records every genome it ever scored.
fn recording_eval(log: EvalLog) -> impl FnMut(&[Vec<f64>]) -> Vec<f64> {
    move |gs: &[Vec<f64>]| {
        gs.iter()
            .map(|g| {
                let f = evoalg::benchmarks::sphere(g);
                log.borrow_mut().push((g.clone(), f));
                f
            })
            .collect()
    }
}

fn base_config() -> NoveltyGaConfig {
    NoveltyGaConfig {
        population_size: 12,
        offspring: 16,
        max_generations: 8,
        fitness_threshold: 2.0, // force the generation budget
        best_set_capacity: 6,
        archive_capacity: 20,
        seed: 77,
        ..NoveltyGaConfig::default()
    }
}

/// Line 21 + output contract: `bestSet` holds exactly the top-fitness
/// distinct genomes among everything the search ever evaluated.
#[test]
fn best_set_is_global_topk_of_all_evaluations() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(5, base_config()).run(&mut eval);

    // Oracle: sort every evaluated (genome, fitness) by fitness, dedupe by
    // genome, take the top capacity.
    let mut seen: Vec<(Vec<f64>, f64)> = Vec::new();
    for (g, f) in log.borrow().iter() {
        if !seen.iter().any(|(sg, _)| sg == g) {
            seen.push((g.clone(), *f));
        }
    }
    seen.sort_by(|a, b| b.1.total_cmp(&a.1));
    seen.truncate(6);
    let expected: Vec<f64> = seen.iter().map(|(_, f)| *f).collect();
    let got = out.best_set.fitness_values();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert!(
            (g - e).abs() < 1e-12,
            "bestSet {got:?} != oracle top-k {expected:?}"
        );
    }
}

/// Line 6: stopping on the generation budget.
#[test]
fn stops_on_generation_budget() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(4, base_config()).run(&mut eval);
    assert_eq!(out.generations, 8);
    assert_eq!(out.stop_reason, StopReason::GenerationBudget);
}

/// Line 6: stopping on the fitness threshold, checked against line 18's
/// `getMaxFitness(bestSet)`.
#[test]
fn stops_on_fitness_threshold() {
    let cfg = NoveltyGaConfig {
        fitness_threshold: 0.5,
        max_generations: 1000,
        ..base_config()
    };
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(4, cfg).run(&mut eval);
    assert_eq!(out.stop_reason, StopReason::FitnessThreshold);
    assert!(out.best_set.max_fitness() >= 0.5);
    assert!(out.generations < 1000);
    // The loop must stop at the FIRST generation whose bestSet reached the
    // threshold: all history rows but the last are below it.
    for h in &out.history[..out.history.len() - 1] {
        assert!(
            h.max_fitness < 0.5,
            "ran past the threshold at gen {}",
            h.generation
        );
    }
}

/// Lines 8–10: evaluation effort is exactly N + generations × m (the
/// population's cached scores are reused, offspring are fresh).
#[test]
fn evaluation_budget_matches_pseudocode() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(4, base_config()).run(&mut eval);
    let total = log.borrow().len() as u64;
    assert_eq!(total, 12 + 8 * 16);
    assert_eq!(out.evaluations, total);
}

/// Line 15/16 invariants across the whole run: archive bounded by its
/// capacity, population size constant at N.
#[test]
fn archive_bounded_and_population_constant() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(4, base_config()).run(&mut eval);
    assert!(out.archive.len() <= 20);
    assert_eq!(out.final_population.len(), 12);
    for h in &out.history {
        assert!(h.archive_len <= 20);
        assert!(h.best_set_len <= 6);
    }
}

/// Lines 18–19: `maxFitness` is non-decreasing and equals the bestSet head.
#[test]
fn max_fitness_monotone_and_consistent() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(4, base_config()).run(&mut eval);
    let series: Vec<f64> = out.history.iter().map(|h| h.max_fitness).collect();
    assert!(series.windows(2).all(|w| w[1] >= w[0]), "{series:?}");
    assert_eq!(*series.last().unwrap(), out.best_set.max_fitness());
}

/// The defining NS property the paper relies on (§III-A): the population
/// itself does not converge — its genotypic diversity stays of the same
/// order as the initial random population's.
#[test]
fn population_never_converges() {
    let cfg = NoveltyGaConfig {
        max_generations: 30,
        ..base_config()
    };
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut eval = recording_eval(Rc::clone(&log));
    let out = NoveltyGa::new(6, cfg).run(&mut eval);
    let genomes: Vec<Vec<f64>> = out.final_population.into_iter().map(|m| m.genes).collect();
    let final_div = evoalg::diversity::mean_pairwise_distance(&genomes);
    // A uniform random population in [0,1]^6 has mean pairwise normalised
    // distance ≈ 0.38; a converged GA population sits well below 0.05.
    assert!(
        final_div > 0.1,
        "NS population collapsed to diversity {final_div} after 30 generations"
    );
}

/// Algorithm 1 as a plain loop: every generation builds its offspring,
/// its noveltySet and its survivors afresh, scores ρ and local
/// competition by the brute-force reference functions, offers every
/// evaluated individual to `bestSet`, and replaces by a stable sort. The
/// engine keeps its rows in reused buffers, sorts packed keys and offers
/// parents once; none of that may change a bit of the outcome.
fn reference_run(
    dims: usize,
    cfg: &NoveltyGaConfig,
    evaluator: &mut dyn FnMut(&[Vec<f64>]) -> Vec<f64>,
) -> NoveltyGaOutcome {
    let (n, k) = (cfg.population_size, cfg.novelty_neighbours);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rows = random_rows(n, 0, dims, &mut rng);
    let mut population: Vec<Individual> = rows.into_iter().map(Individual::new).collect();
    let mut archive = NoveltyArchive::new(cfg.archive_capacity);
    let mut best_set = BestSet::new(cfg.best_set_capacity);
    let (mut generations, mut max_fitness, mut evaluations) = (0u32, 0.0f64, 0u64);
    let mut history = Vec::new();
    let mut stop_reason = StopReason::GenerationBudget;
    let score = |ind: &Individual| {
        let lc = if ind.local_comp.is_finite() {
            ind.local_comp
        } else {
            0.0
        };
        cfg.scoring.score_with_lc(ind.fitness, ind.novelty, lc)
    };
    let mut evaluate_missing = |pop: &mut [Individual]| {
        let missing = pop.iter_mut().filter(|m| !m.is_evaluated());
        let mut missing: Vec<&mut Individual> = missing.collect();
        let genomes: Vec<Vec<f64>> = missing.iter().map(|m| m.genes.clone()).collect();
        if genomes.is_empty() {
            return 0;
        }
        for (m, f) in missing.iter_mut().zip(evaluator(&genomes)) {
            m.fitness = f;
        }
        genomes.len() as u64
    };
    while generations < cfg.max_generations {
        if max_fitness >= cfg.fitness_threshold {
            stop_reason = StopReason::FitnessThreshold;
            break;
        }
        // Line 7: two spins, the crossover test (and cut), then mutation
        // of both children, until m children exist.
        let scores: Vec<f64> = (population.iter())
            .map(|m| {
                if m.novelty.is_finite() && m.fitness.is_finite() {
                    score(m)
                } else {
                    0.0
                }
            })
            .collect();
        let wheel = RouletteWheel::new(&scores);
        let parents = &population;
        let mut children = Vec::new();
        while children.len() < cfg.offspring {
            let pa = &parents[wheel.spin(&mut rng)].genes;
            let pb = &parents[wheel.spin(&mut rng)].genes;
            let (mut c1, mut c2) = if rng.random::<f64>() < cfg.crossover_rate {
                let cut = rng.random_range(1..pa.len());
                (
                    [&pa[..cut], &pb[cut..]].concat(),
                    [&pb[..cut], &pa[cut..]].concat(),
                )
            } else {
                (pa.clone(), pb.clone())
            };
            uniform_mutation(&mut c1, cfg.mutation_rate, &mut rng);
            uniform_mutation(&mut c2, cfg.mutation_rate, &mut rng);
            children.push(Individual::new(c1));
            if children.len() < cfg.offspring {
                children.push(Individual::new(c2));
            }
        }
        let mut offspring = children;
        // Lines 8–10.
        evaluations += evaluate_missing(&mut population);
        evaluations += evaluate_missing(&mut offspring);
        // Lines 11–14.
        let union: Vec<&Individual> = population.iter().chain(&offspring).collect();
        let mut behaviours: Vec<Vec<f64>> = (union.iter())
            .map(|m| cfg.behaviour.describe(&m.genes, m.fitness))
            .collect();
        behaviours.extend(archive.behaviour_matrix().to_rows());
        let subjects = union.len();
        let rhos: Vec<f64> = (0..subjects)
            .map(|i| novelty_score(i, &behaviours, k))
            .collect();
        let mut all_fitness: Vec<f64> = union.iter().map(|m| m.fitness).collect();
        all_fitness.extend(archive.entries().iter().map(|e| e.fitness));
        let lcs: Vec<f64> = (0..subjects)
            .map(|i| local_competition_score(i, &behaviours, &all_fitness, k))
            .collect();
        let members = population.iter_mut().chain(&mut offspring);
        for ((m, rho), lc) in members.zip(rhos).zip(lcs) {
            m.novelty = if rho.is_finite() { rho } else { 1.0 };
            if cfg.scoring.uses_local_competition() {
                m.local_comp = lc;
            }
        }
        // Line 15.
        for (j, ind) in offspring.iter().enumerate() {
            let behaviour = &behaviours[population.len() + j];
            archive.offer(&ind.genes, behaviour, ind.novelty, ind.fitness);
        }
        // Line 17, offspring then parents, every generation.
        for ind in offspring.iter().chain(&population) {
            if ind.is_evaluated() {
                best_set.offer(&ind.genes, ind.fitness);
            }
        }
        // Line 16: a stable sort by descending score.
        let union: Vec<Individual> = population.into_iter().chain(offspring).collect();
        let mut ranked: Vec<usize> = (0..union.len()).collect();
        ranked.sort_by(|&x, &y| score(&union[y]).total_cmp(&score(&union[x])));
        ranked.truncate(n);
        population = ranked.iter().map(|&i| union[i].clone()).collect();
        // Lines 18–19.
        max_fitness = best_set.max_fitness();
        generations += 1;
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let members = &population;
        history.push(NsGenStats {
            generation: generations,
            max_fitness,
            mean_novelty: mean(members.iter().map(|m| m.novelty).collect()),
            mean_fitness: mean(members.iter().map(|m| m.fitness).collect()),
            archive_len: archive.len(),
            best_set_len: best_set.len(),
            evaluations,
        });
    }
    NoveltyGaOutcome {
        best_set,
        archive,
        final_population: population,
        generations,
        evaluations,
        stop_reason,
        history,
    }
}

/// Every output of a run as bits: `bestSet` in order, the archive in slot
/// order, the final population's genes and scores, the history, the
/// counters and the stop reason.
fn outcome_bits(out: &NoveltyGaOutcome) -> Vec<(&'static str, Vec<u64>)> {
    let genes = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut lines = Vec::new();
    for e in out.best_set.entries() {
        lines.push((
            "bestSet",
            [genes(&e.genes), vec![e.fitness.to_bits()]].concat(),
        ));
    }
    for e in out.archive.entries() {
        let scores = vec![e.novelty.to_bits(), e.fitness.to_bits()];
        lines.push(("archive", [genes(&e.genes), scores].concat()));
    }
    lines.push((
        "archive rows",
        genes(out.archive.behaviour_matrix().as_flat()),
    ));
    for m in &out.final_population {
        let scores = [m.fitness, m.novelty, m.local_comp].map(f64::to_bits);
        lines.push(("member", [genes(&m.genes), scores.to_vec()].concat()));
    }
    for h in &out.history {
        let floats = [h.max_fitness, h.mean_novelty, h.mean_fitness].map(f64::to_bits);
        let counts = [
            h.generation.into(),
            h.archive_len as u64,
            h.best_set_len as u64,
        ];
        lines.push(("history", [&floats[..], &counts, &[h.evaluations]].concat()));
    }
    let stop = u64::from(out.stop_reason == StopReason::FitnessThreshold);
    lines.push(("run", vec![out.generations.into(), out.evaluations, stop]));
    lines
}

/// The engine's generation against [`reference_run`] on random configs:
/// both behaviour spaces, all three scoring policies, odd and even m, k
/// from 1 to beyond the noveltySet, and a fitness of four levels, so that
/// ties and duplicate genomes (clones at low mutation and crossover rates)
/// are common. Every output matches bit for bit.
#[test]
fn the_generation_is_the_reference_loop_bit_for_bit() {
    for case in 0..160u64 {
        let mut rng = StdRng::seed_from_u64(case ^ 0xA1_6E4E);
        let dims = rng.random_range(2..6usize);
        let population_size = rng.random_range(2..10usize);
        let offspring = rng.random_range(2..11usize);
        let archive_capacity = rng.random_range(1..3 * population_size);
        let rows = population_size + offspring + archive_capacity;
        let novelty_neighbours = if rng.random::<f64>() < 0.25 {
            rng.random_range(rows..rows + 4)
        } else {
            rng.random_range(1..6)
        };
        let weight = f64::from(rng.random_range(0..5u32)) / 4.0;
        let scoring = match rng.random_range(0..3u32) {
            0 => ScoringPolicy::PureNovelty,
            1 => ScoringPolicy::Weighted {
                novelty_weight: weight,
            },
            _ => ScoringPolicy::NoveltyLocalCompetition {
                novelty_weight: weight,
            },
        };
        let rates = [0.0, 0.05, 0.3, 1.0];
        let cfg = NoveltyGaConfig {
            population_size,
            offspring,
            mutation_rate: rates[rng.random_range(0..4usize)],
            crossover_rate: rates[rng.random_range(0..4usize)],
            novelty_neighbours,
            max_generations: rng.random_range(0..14),
            fitness_threshold: if rng.random::<bool>() { 2.0 } else { 0.75 },
            archive_capacity,
            best_set_capacity: rng.random_range(1..2 * population_size),
            scoring,
            behaviour: if rng.random::<bool>() {
                BehaviourSpace::Fitness
            } else {
                BehaviourSpace::Genotype
            },
            seed: rng.random(),
        };
        let quantised = |gs: &[Vec<f64>]| -> Vec<f64> {
            (gs.iter())
                .map(|g| (g.iter().sum::<f64>() / g.len() as f64 * 4.0).floor() / 4.0)
                .collect()
        };
        let expected = reference_run(dims, &cfg, &mut { quantised });
        let got = NoveltyGa::new(dims, cfg).run(&mut { quantised });
        assert_eq!(
            outcome_bits(&got),
            outcome_bits(&expected),
            "case {case}: {cfg:?}"
        );
    }
}
