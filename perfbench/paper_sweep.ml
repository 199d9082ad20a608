(* paper-sweep: the paper's coin-flip experiment (Section 4) on the
   simulated machine, fifo scheduler.  Fig 6 cells put the seven paper
   queues at P=16; Fig 7 cells put the four scalable queues at P=64 and
   P=256.  Host time goes to Evq/Sim/Mem and the simulated queue code;
   no checker runs. *)

open Common
module W = Pqbenchlib.Workload

let npriorities = 16
let ops_per_proc = 40

(* A lock-based queue's latency at P=16 swings by a third from one
   seed to the next (SkipList's from 400 to 3300 cycles), so each Fig 6
   point runs on [fig6_seeds] seeds and takes their median; the
   P=64/256 points average over thousands of accesses and vary by a
   few percent, so one seed does. *)
let fig6_seeds = 48

let cells ~seed =
  List.concat_map
    (fun seed -> List.map (fun q -> (q, 16, seed)) paper_queues)
    (sub_seeds ~seed fig6_seeds)
  @ List.concat_map
      (fun p -> List.map (fun q -> (q, p, seed)) Pqcore.Registry.scalable_names)
      [ 64; 256 ]
  |> List.map (fun (queue, nprocs, seed) ->
         { (W.spec ~queue ~nprocs ~npriorities) with ops_per_proc; seed })

let accesses (r : W.result) = r.inserts + r.deletes + r.empty_deletes

(* one probed cell's layer counters *)
let trace_cell (s : W.spec) =
  let metrics = Pqsim.Stats.create () in
  let probe = Pqsim.Probe.make ~metrics () in
  let r, events, words =
    engine_delta (fun () ->
        Span.time (s.queue ^ ".host") (fun () -> W.run ~probe s))
  in
  let d = Pqtrace.Metrics.derive metrics in
  let q = s.queue in
  let n = fi (accesses r) in
  Acc.add "psim.events" (fi events);
  Acc.add "psim.runs" 1.0;
  Acc.add "psim.words" (fi words);
  Acc.add (q ^ ".accesses") n;
  Acc.add (q ^ ".misses") (fi (Pqsim.Mem.misses r.mem));
  Acc.add (q ^ ".updates") (fi (Pqsim.Mem.updates r.mem));
  Acc.add (q ^ ".queue_wait") (fi (Pqsim.Mem.queue_wait r.mem));
  Acc.add (q ^ ".ins_cycles") (r.latency_insert *. fi r.inserts);
  Acc.add (q ^ ".inserts") (fi r.inserts);
  Acc.add (q ^ ".del_cycles")
    (r.latency_delete *. fi (r.deletes + r.empty_deletes));
  Acc.add (q ^ ".deletes") (fi (r.deletes + r.empty_deletes));
  Acc.add (q ^ ".cas") (fi (d.cas_ok + d.cas_fail));
  Acc.add (q ^ ".cas_fail") (fi d.cas_fail);
  Acc.add (q ^ ".lock_wait") (fi d.lock_wait_total);
  Acc.add (q ^ ".funnel_ops") (fi d.funnel_ops);
  Acc.add (q ^ ".funnel_combined") (fi d.funnel_combined);
  Acc.add (q ^ ".funnel_eliminated") (fi d.funnel_eliminated);
  r

let setup ~seed ~plant () =
  let cells = cells ~seed in
  (* warm-up: the first Fig 6 cell, unchecked *)
  ignore (W.run (List.hd cells));
  let first = Hashtbl.create 16 in
  let round_no = ref 0 in
  fun () ->
    incr round_no;
    let t = tally () in
    let results =
      List.map
        (fun (s : W.spec) ->
          let label = Printf.sprintf "%s P=%d seed %d" s.queue s.nprocs s.seed in
          match
            piece t label (fun () ->
                if !Span.on then trace_cell s else W.run s)
          with
          | r ->
              let c =
                if plant = Perturb_cycles && !round_no > 1 && s.nprocs = 256
                   && s.queue = "SimpleTree"
                then r.latency_all +. 1.0
                else r.latency_all
              in
              let want = s.nprocs * s.ops_per_proc in
              let ok_count = accesses r = want in
              let prev = Hashtbl.find_opt first label in
              if prev = None then Hashtbl.replace first label c;
              let ok_repeat = match prev with Some p -> p = c | None -> true in
              check t label
                (ok_count && ok_repeat && c > 0.0)
                (fun () ->
                  if not ok_count then
                    Printf.sprintf "%d accesses, want %d" (accesses r) want
                  else Printf.sprintf "cycles %.17g, first round %.17g" c
                      (Option.value ~default:nan prev));
              Some (s, c)
          | exception W.Verification_failure m ->
              check t label false (fun () -> "Verification_failure " ^ m);
              None)
        cells
      |> List.filter_map Fun.id
    in
    (* one point of a figure: the median over its seeds *)
    let lat p q =
      match
        List.filter_map
          (fun ((s : W.spec), c) ->
            if s.nprocs = p && s.queue = q then Some c else None)
          results
      with
      | [] -> nan
      | cs -> median cs
    in
    (* EXPERIMENTS.md's reproduced Fig 6 / Fig 7 orderings.  At P=16
       SimpleLinear is lowest, HuntEtAl highest, and SingleLock sits
       above all four scalable queues (SkipList lies between the two
       heaps there, EXPERIMENTS.md's "≈" row). *)
    let show ps qs =
      String.concat " "
        (List.map (fun q -> Printf.sprintf "%s=%.1f" q (lat ps q)) qs)
    in
    let below p q others = List.for_all (fun o -> o = q || lat p q < lat p o) others in
    let above p q others = List.for_all (fun o -> o = q || lat p q > lat p o) others in
    check t "fig6 order P=16"
      (below 16 "SimpleLinear" paper_queues
      && above 16 "HuntEtAl" paper_queues
      && above 16 "SingleLock" Pqcore.Registry.scalable_names)
      (fun () -> show 16 paper_queues);
    check t "fig7 order P=256"
      (below 256 "FunnelTree" Pqcore.Registry.scalable_names)
      (fun () -> show 256 Pqcore.Registry.scalable_names);
    let points =
      List.sort_uniq compare
        (List.map (fun ((s : W.spec), _) -> (s.queue, s.nprocs)) results)
    in
    finish t
      ~cycles:(cycles_by_queue (List.map (fun (q, p) -> (q, lat p q)) points))

let per_layer ~rounds =
  let r = fi rounds in
  let g = Acc.get in
  let host_total =
    List.fold_left (fun a q -> a +. Span.total (q ^ ".host")) 0.0 paper_queues
  in
  [
    ("psim.events", g "psim.events" /. r);
    ("psim.runs", g "psim.runs" /. r);
    ("psim.ns_per_event", ratio (host_total *. 1e9) (g "psim.events"));
    ("psim.minor_words_per_event", ratio (g "psim.words") (g "psim.events"));
  ]
  @ List.concat_map
      (fun q ->
        let n = g (q ^ ".accesses") in
        [
          ("mem." ^ q ^ ".misses_per_access", ratio (g (q ^ ".misses")) n);
          ("mem." ^ q ^ ".updates_per_access", ratio (g (q ^ ".updates")) n);
          ( "mem." ^ q ^ ".queue_wait_per_access",
            ratio (g (q ^ ".queue_wait")) n );
          (q ^ ".insert_cycles", ratio (g (q ^ ".ins_cycles")) (g (q ^ ".inserts")));
          (q ^ ".delete_cycles", ratio (g (q ^ ".del_cycles")) (g (q ^ ".deletes")));
          (q ^ ".cas_fail_ratio", ratio (g (q ^ ".cas_fail")) (g (q ^ ".cas")));
          (q ^ ".lock_wait_cycles", ratio (g (q ^ ".lock_wait")) n);
          (q ^ ".host_s", Span.total (q ^ ".host") /. r);
        ])
      paper_queues
  @ List.concat_map
      (fun q ->
        let ops = g (q ^ ".funnel_ops") in
        [
          (q ^ ".combining_ratio", ratio (g (q ^ ".funnel_combined")) ops);
          ( q ^ ".elimination_ratio",
            ratio (2.0 *. g (q ^ ".funnel_eliminated")) ops );
        ])
      [ "LinearFunnels"; "FunnelTree" ]

let workload = { name = "paper-sweep"; setup; per_layer }
