(* audit: the probe consumers — race sanitizer, lock-order analyser,
   rank-error oracle and the chaos monitors — over small
   queue x schedule x seed cells.  Each analyser re-simulates its own
   cells, so probed engine paths and analyser folds share the time. *)

open Common
module Races = Pqanalysis.Races
module Lockdep = Pqanalysis.Lockdep
module Rank_driver = Pqexplore.Rank_driver
module Chaos = Pqchaos.Driver

let queues = paper_queues @ [ "MultiQueue" ]
let nprocs = 8
let ops_per_proc = 24

(* each analyser audits every queue on [seeds] seeds; the chaos soak,
   whose cells also give cycles.*, on [chaos_seeds].  The soak runs the
   default schedule only: its PCT cells are judged against a watchdog of
   4 x baseline + 100k idle cycles, which PCT's per-step delays outlast
   on rare seeds (SkipList, seed 230214162640426: Blocked, though the
   same cell completes at 40x baseline under a longer watchdog), so a
   PCT cell fails on some seeds and not others.  Adversarial schedules
   still reach the queues through Races and Lockdep, which set no
   watchdog. *)
let seeds = 3
let chaos_seeds = 48

let chaos_config ~seed =
  {
    Chaos.default with
    queues;
    scenarios = [ "coinflip" ];
    plans = [ None ];
    scheds = [ Chaos.Default ];
    seeds = sub_seeds ~seed:(seed + 1) chaos_seeds;
    nprocs;
  }

let timed t label name f =
  let v, events, words =
    engine_delta (fun () -> piece t label (fun () -> Span.time name f))
  in
  if !Span.on then begin
    Acc.add "psim.events" (fi events);
    Acc.add "psim.words" (fi words)
  end;
  v

let setup ~seed ~plant () =
  let cfg = chaos_config ~seed in
  let seeds = sub_seeds ~seed seeds in
  (* warm-up: the first race audit, unchecked *)
  ignore
    (Races.audit_queue ~nprocs ~ops_per_proc ~seed ~queue:(List.hd queues) ());
  fun () ->
    let t = tally () in
    List.iter
      (fun queue ->
        List.iter
          (fun seed ->
            let a =
              timed t (Printf.sprintf "races %s seed %d" queue seed) "races" (fun () ->
                  Races.audit_queue ~nprocs ~ops_per_proc ~seed ~queue ())
            in
            if !Span.on then Acc.add "races.events" (fi a.events_seen);
            check t
              (Printf.sprintf "races %s seed %d" queue seed)
              (a.races = [] && a.violations = [])
              (fun () -> Printf.sprintf "%d races" (List.length a.races)))
          seeds;
        let l =
          timed t ("lockdep " ^ queue) "lockdep" (fun () ->
              Lockdep.audit_queue ~nprocs ~ops_per_proc ~seeds ~queue ())
        in
        let cycles =
          if plant = Fake_lock_cycle && queue = "SingleLock" then
            [ "SingleLock.fake_a"; "SingleLock.fake_b" ] :: l.cycles
          else l.cycles
        in
        if !Span.on then Acc.add "lockdep.notes" (fi l.analysis.events_seen);
        check t ("lockdep " ^ queue)
          (cycles = [] && l.findings = [] && l.violations = [] && l.aborted = [])
          (fun () ->
            Printf.sprintf "%d cycles, %d findings, %d aborted"
              (List.length cycles) (List.length l.findings)
              (List.length l.aborted));
        let r =
          timed t ("rank " ^ queue) "rank" (fun () ->
              Rank_driver.measure_queue ~nprocs ~ops_per_proc ~seeds queue)
        in
        check t ("rank " ^ queue)
          (r.pass && (r.relaxed || r.worst_rank = 0))
          (fun () ->
            Printf.sprintf "worst rank %d, bound %d" r.worst_rank r.bound))
      queues;
    let cells =
      List.concat_map
        (fun seed ->
          timed t (Printf.sprintf "chaos seed %d" seed) "chaos" (fun () ->
              Chaos.run ~jobs:1 { cfg with seeds = [ seed ] }))
        cfg.seeds
    in
    if !Span.on then Acc.add "chaos.cells" (fi (List.length cells));
    List.iter
      (fun (c : Chaos.cell) ->
        check t
          (Printf.sprintf "chaos %s/%s" c.queue c.sched)
          (match c.verdict with
          | Healthy | Degraded _ -> true
          | Blocked _ | Safety_violation _ -> false)
          (fun () -> Chaos.verdict_detail c.verdict))
      cells;
    check t "chaos gate" (Chaos.gate cells = []) (fun () ->
        String.concat "; " (Chaos.gate cells));
    (* processor-cycles per access of the chaos cells, their median: a
       makespan over 30 ops per processor has outlier seeds *)
    let samples =
      List.map
        (fun (c : Chaos.cell) ->
          (c.queue, fi (c.cycles * cfg.nprocs) /. fi (max 1 c.ops)))
        cells
    in
    finish t ~cycles:(cycles_by_queue ~by:median samples)

let per_layer ~rounds =
  let r = fi rounds and g = Acc.get in
  let all_s =
    List.fold_left (fun a n -> a +. Span.total n) 0.0
      [ "races"; "lockdep"; "rank"; "chaos" ]
  in
  [
    ("psim.events", g "psim.events" /. r);
    ("psim.ns_per_event", ratio (all_s *. 1e9) (g "psim.events"));
    ("psim.minor_words_per_event", ratio (g "psim.words") (g "psim.events"));
    ("races.s", Span.total "races" /. r);
    ("races.events", g "races.events" /. r);
    ("lockdep.s", Span.total "lockdep" /. r);
    ("lockdep.notes", g "lockdep.notes" /. r);
    ("chaos.s", Span.total "chaos" /. r);
    ("chaos.cells", g "chaos.cells" /. r);
    ("rank.s", Span.total "rank" /. r);
  ]

let workload = { name = "audit"; setup; per_layer }
