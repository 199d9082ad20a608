(* explore: adversarial random and PCT schedules over the seven strict
   queues, plus a MultiQueue refutation, each violation shrunk into a
   witness.  Thousands of tiny policy-driven simulations whose host time
   goes to Lincheck, mostly reached through Shrink.

   The loop is Pqexplore.Explore.run's, rebuilt from the layer's public
   pieces so that each call into Driver / Verdict / Lincheck / Shrink
   can carry its own span. *)

open Common
open Pqexplore

type cell = {
  queue : string;
  policy : string;
  cfg : Driver.config;
  seeds : int;  (** independent explorations, each shrinking its own witnesses *)
  budget : int;  (** schedules per exploration *)
  shrink : int;  (** simulator runs each witness shrink may spend *)
}

(* The checker's search bound.  A few histories in a hundred take the
   Wing-Gong search past 10^3 states; left at Driver.config's 3 x 10^5
   they set a round's cost and peak heap by themselves, and even at
   2 x 10^4 a single witness shrink through such histories swung a
   round's cost by a tenth from seed to seed.  Such a search ends as
   Gave_up, which never counts as a violation.  MultiQueue's searches,
   most of them refutations that must exhaust the space, stop sooner:
   see [cells]. *)
let max_states = 5_000
let mq_max_states = 1_000

(* Which witness a schedule yields, and how hard it is to shrink, swings
   with the seed; many small explorations per cell instead of one large
   one keep a round's cost from hanging on a single witness.

   SimpleTree runs under random preemption only: under PCT it refutes
   quiescent consistency on some seeds.  HuntEtAl is not explored: at
   4 x 5 its insert raises Invalid_argument on about one history in
   15 000 under every schedule (PCT, random preemption and fifo alike),
   because it indexes slot [bitrev_slot (size + 1)], past the
   4 x 5 + 1 = 21 slots once 17 elements are in the heap (both faults:
   CHANGES.md, FOUND).  An operation that fails on some seeds only would
   make the failed share differ between runs, and an exception ends the
   run.  HuntEtAl's latency under random preemption comes from
   [unexplored] instead. *)
let policies = function
  | "SimpleTree" -> [ "random" ]
  | _ -> [ "random"; "pct" ]

let cells () =
  List.concat_map
    (fun queue ->
      List.map
        (fun policy ->
          { queue; policy; cfg = Driver.config ~max_states queue; seeds = 12;
            budget = 4; shrink = 8 })
        (policies queue))
    (List.filter (fun q -> q <> "HuntEtAl") paper_queues)
  @ [
      (* Random schedules refute quiescent consistency on this short
         script often enough that each exploration finds one more often
         than not.  A refutation costs milliseconds here and ~0.1 s at
         4 x 4, and a witness shrink's cost is heavy-tailed (median 8 ms,
         tenth-slowest 80 ms at 3 x 4 and 5 000 states), so many small
         explorations fit where a few large ones would each swing the
         round's cost: at 40 explorations of 3 x 4 the round's cost
         varied by a seventh from seed to seed, at 160 of 3 x 3 with
         the lower search bound by a thirtieth.  Every exploration runs
         the same number of schedules (stopping at the first refutation
         made the count geometric, and the round's cost with it). *)
      {
        queue = "MultiQueue";
        policy = "random";
        cfg =
          Driver.config ~max_states:mq_max_states ~nprocs:3 ~ops_per_proc:3
            "MultiQueue";
        seeds = 160;
        budget = 13;
        shrink = 16;
      };
    ]

let recording c ~seed =
  let p =
    match c.policy with
    | "random" -> Policy.random ~seed ~freq:4 ~max_delay:300 ~max_weight:4 ()
    | _ -> Policy.pct ~seed ~nprocs:c.cfg.nprocs ~depth:3 ~quantum:50 ()
  in
  Policy.record ~seed p

let simulate cfg ~policy ~seed =
  let h, events, words =
    engine_delta (fun () ->
        Span.time "explore.simulate" (fun () -> Driver.history cfg ~policy ~seed))
  in
  if !Span.on then begin
    Acc.add "explore.histories" 1.0;
    Acc.add "psim.runs" 1.0;
    Acc.add "psim.events" (fi events);
    Acc.add "psim.words" (fi words)
  end;
  h

let lincheck f =
  if !Span.on then Acc.add "lincheck.checks" 1.0;
  let v = Span.time "lincheck" f in
  if v = Pqcheck.Lincheck.Gave_up && !Span.on then Acc.add "lincheck.gave_up" 1.0;
  v

let violates cfg kind (s : Schedule.t) =
  let h = simulate cfg ~policy:(Schedule.replay s) ~seed:s.seed in
  let ms = cfg.Driver.max_states in
  lincheck (fun () ->
      match kind with
      | `Lin -> Pqcheck.Lincheck.linearizable ~max_states:ms h
      | `Qc -> Pqcheck.Lincheck.quiescently_consistent ~max_states:ms h)
  = Pqcheck.Lincheck.Not_linearizable

(* shrink one violating schedule; the witness must still violate and
   be no larger than what the explorer found *)
let witness c kind original =
  let cfg = c.cfg in
  let shrunk, runs =
    Span.time "shrink" (fun () ->
        Shrink.shrink ~max_runs:c.shrink ~violates:(violates cfg kind)
          original)
  in
  let p0 = Schedule.perturbations original and p1 = Schedule.perturbations shrunk in
  if !Span.on then begin
    Acc.add "shrink.runs" (fi runs);
    Acc.add "shrink.kept" (fi p1);
    Acc.add "shrink.found" (fi p0)
  end;
  if p1 > p0 then Some (Printf.sprintf "witness grew %d -> %d" p0 p1)
  else if not (violates cfg kind shrunk) then Some "shrunk witness does not replay"
  else None

(* what one cell's explorations saw *)
type seen = {
  mutable lin : int;  (** schedules refuting linearizability *)
  mutable qc : int;  (** schedules refuting quiescent consistency *)
  mutable problems : string list;  (** witnesses that failed their check *)
  mutable lat_sum : int;  (** invoke-to-response cycles, all operations *)
  mutable lat_n : int;
}

(* One exploration: schedules from [sub], the first violation of each
   kind shrunk into a witness. *)
let explore_one c x sub =
  let lin_w = ref false and qc_w = ref false in
  let i = ref 0 in
  while !i < c.budget do
    let wseed = (sub * 1024) + !i in
    incr i;
    let r = recording c ~seed:wseed in
    let h = simulate c.cfg ~policy:r.policy ~seed:wseed in
    List.iter
      (fun (e : Pqcheck.History.event) ->
        x.lat_sum <- x.lat_sum + (e.t1 - e.t0);
        x.lat_n <- x.lat_n + 1)
      h;
    let v =
      Span.time "lincheck" (fun () ->
          Verdict.classify ~max_states:c.cfg.max_states h)
    in
    if !Span.on then begin
      let checks = if v.lin = Pqcheck.Lincheck.Linearizable then 1 else 2 in
      Acc.add "lincheck.checks" (fi checks);
      if v.lin = Gave_up || v.qc = Gave_up then Acc.add "lincheck.gave_up" 1.0
    end;
    let first kind found =
      if not !found then begin
        found := true;
        Option.iter
          (fun m -> x.problems <- m :: x.problems)
          (witness c kind (r.schedule ()))
      end
    in
    if Verdict.lin_violated v then begin
      x.lin <- x.lin + 1;
      first `Lin lin_w
    end;
    if Verdict.qc_violated v then begin
      x.qc <- x.qc + 1;
      first `Qc qc_w
    end
  done

(* every exploration of a cell, each timed as one piece *)
let run_cell ~seed t c =
  let x = { lin = 0; qc = 0; problems = []; lat_sum = 0; lat_n = 0 } in
  List.iter
    (fun sub ->
      piece t
        (Printf.sprintf "explore %s/%s seed %d" c.queue c.policy sub)
        (fun () -> explore_one c x sub))
    (sub_seeds ~seed:(seed + Hashtbl.hash (c.queue, c.policy)) c.seeds);
  let level =
    if x.qc > 0 then Verdict.Inconsistent
    else if x.lin > 0 then Verdict.Quiescent
    else Verdict.Linearizable
  in
  (level, x.problems, fi x.lat_sum /. fi (max 1 x.lat_n))

(* HuntEtAl's coin-flip latency under random preemption, without the
   checker: 24 runs at the paper's 40 ops per processor (4 processors),
   where the heap would need 128 of its 160 elements live at once to
   reach the slot fault (at 4 x 5, 17 of 20).  Each run must account
   for every access and raise no Verification_failure. *)
let unexplored ~seed t =
  List.map
    (fun sub ->
      let s =
        { (Pqbenchlib.Workload.spec ~queue:"HuntEtAl" ~nprocs:4 ~npriorities:8) with
          ops_per_proc = 40; seed = sub }
      in
      let label = Printf.sprintf "latency HuntEtAl/random seed %d" sub in
      let policy = Policy.random ~seed:sub ~freq:4 ~max_delay:300 ~max_weight:4 () in
      match piece t label (fun () -> Pqbenchlib.Workload.run ~policy s) with
      | r ->
          let n = r.inserts + r.deletes + r.empty_deletes in
          check t label (n = s.nprocs * s.ops_per_proc) (fun () ->
              Printf.sprintf "%d accesses" n);
          ("HuntEtAl", r.latency_all)
      | exception Pqbenchlib.Workload.Verification_failure m ->
          check t label false (fun () -> m);
          ("HuntEtAl", nan))
    (sub_seeds ~seed:(seed + Hashtbl.hash "HuntEtAl") 24)

let setup ~seed ~plant () =
  let cells = cells () in
  (* warm-up: the first cell, unchecked *)
  ignore (run_cell ~seed (tally ()) (List.hd cells));
  fun () ->
    let t = tally () in
    let lats =
      List.map
        (fun c ->
          let level, problems, lat =
            Span.time ("cell " ^ c.queue ^ "/" ^ c.policy) (fun () -> run_cell ~seed t c)
          in
          let level =
            if plant = Force_inconsistent && c.queue = "SingleLock" then
              Verdict.Inconsistent
            else level
          in
          let want_ok =
            match c.queue with
            | "MultiQueue" -> level = Verdict.Inconsistent
            | "SingleLock" -> level = Verdict.Linearizable
            | _ -> level <> Verdict.Inconsistent
          in
          check t
            (Printf.sprintf "explore %s/%s" c.queue c.policy)
            (want_ok && problems = [])
            (fun () ->
              String.concat "; " (Verdict.level_to_string level :: problems));
          (c.queue, lat))
        cells
    in
    let hunt = unexplored ~seed t in
    let mean xs = List.fold_left ( +. ) 0.0 xs /. fi (List.length xs) in
    finish t
      ~cycles:(cycles_by_queue (("HuntEtAl", mean (List.map snd hunt)) :: lats))

let per_layer ~rounds =
  let r = fi rounds and g = Acc.get in
  let sim_s = Span.total "explore.simulate" in
  let lin_s = Span.total "lincheck" in
  [
    ("psim.events", g "psim.events" /. r);
    ("psim.runs", g "psim.runs" /. r);
    ("psim.ns_per_event", ratio (sim_s *. 1e9) (g "psim.events"));
    ("psim.minor_words_per_event", ratio (g "psim.words") (g "psim.events"));
    ("explore.histories", g "explore.histories" /. r);
    ("explore.simulate_s", sim_s /. r);
    ("lincheck.checks", g "lincheck.checks" /. r);
    ("lincheck.s", lin_s /. r);
    ("lincheck.ms_per_check", ratio (lin_s *. 1e3) (g "lincheck.checks"));
    ("lincheck.gave_up", g "lincheck.gave_up" /. r);
    ("shrink.runs", g "shrink.runs" /. r);
    ("shrink.s", Span.total "shrink" /. r);
    ("shrink.kept_ratio", ratio (g "shrink.kept") (g "shrink.found"));
  ]

let workload = { name = "explore"; setup; per_layer }
