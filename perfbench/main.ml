(* Benchmark entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up 21 times (median = setup_s), then runs whole
   rounds until S seconds have passed (at least three).  Each round
   times its pieces (one simulation, one exploration, one audit call,
   one host cell) separately; round_s adds up every piece's median over
   the run's rounds.  Setups and pieces are timed in reference-speed
   seconds (Calib): the shared host's own speed swings by a quarter
   between runs, which no statistic inside a run removes.  Prints a
   human-readable log (with the rounds' plain wall times), then as its
   last line one JSON object with correct / attempted / failed and the
   metrics: the end-to-end set untraced, the per-layer set traced. *)

open Common

let workloads =
  [ Paper_sweep.workload; Explore_cells.workload; Audit.workload; Host_mix.workload ]

let min_rounds = 3

(* set-ups per run: a set-up takes milliseconds, so one is mostly timer
   and scheduler jitter; setup_s is the median of many *)
let setups = 21

let usage () =
  prerr_endline
    "usage: main.exe --workload (paper-sweep|explore|audit|host-mix) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (float_of_string v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_of v); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match
    ( List.find_opt (fun w -> w.name = !workload) workloads,
      !seed, !seconds, !trace )
  with
  | Some w, Some seed, Some seconds, Some (0 | 1 as trace) when seconds > 0.0 ->
      (w, seed, seconds, trace = 1)
  | _ -> usage ()

let sum = List.fold_left (fun a (_, x) -> a +. x) 0.0

(* every piece's median over [rounds], added up *)
let round_time rounds =
  let by = Hashtbl.create 256 in
  List.iter
    (List.iter (fun (label, x) ->
         Hashtbl.replace by label
           (x :: Option.value ~default:[] (Hashtbl.find_opt by label))))
    rounds;
  Hashtbl.fold (fun _ xs a -> a +. median xs) by 0.0

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let w, seed, seconds, traced = parse_args () in
  (* only the last set-up's round is kept: the others' inputs must not
     stay live and swell heap_mb *)
  let last_setup = ref None in
  let setup_times =
    List.init setups (fun _ ->
        let round, secs = Calib.timed (fun () -> w.setup ~seed ~plant:Clean ()) in
        last_setup := Some round;
        secs)
  in
  let setup_s = median setup_times in
  let round = Option.get !last_setup in
  let attempted = ref 0 and failed = ref 0 and expected = ref 0 in
  let errors = ref [] in
  let first_cycles = ref None in
  let record (r : round) =
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed;
    expected := !expected + r.expected;
    List.iter (fun e -> if not (List.mem e !errors) then errors := e :: !errors) r.errors;
    match !first_cycles with
    | None -> first_cycles := Some r.cycles
    | Some c when c <> r.cycles ->
        errors := "simulated cycles differ between rounds" :: !errors
    | Some _ -> ()
  in
  (* a traced run first times one untraced round, the overhead baseline *)
  let untraced_s =
    if traced then begin
      let r = round () in
      record r;
      Span.on := true;
      Some (sum r.pieces)
    end
    else None
  in
  let t_start = Unix.gettimeofday () in
  let times = ref [] and walls = ref [] in
  let last = ref None in
  (* peak major heap over the set-ups and the first [min_rounds] rounds,
     which every run reaches: a peak over however many rounds fit would
     grow with the host's speed *)
  let heap_words = ref 0 in
  while
    List.length !times < min_rounds
    || Unix.gettimeofday () -. t_start < seconds
  do
    (* every round starts from the same compacted heap, so the peak
       heap (heap_mb) does not hang on where the previous round left
       the major collector *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = round () in
    walls := (Unix.gettimeofday () -. t0) :: !walls;
    record r;
    times := r.pieces :: !times;
    last := Some r;
    if List.length !times = min_rounds then
      heap_words := (Gc.quick_stat ()).top_heap_words
  done;
  let rounds = List.length !times in
  let round_s = round_time !times in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev !errors);
  let cycles = match !last with Some r -> r.cycles | None -> [] in
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s, "s");
        ("round_s", round_s, "s");
        ( "heap_mb",
          fi (!heap_words * (Sys.word_size / 8)) /. 1e6,
          "MB" );
      ]
      @ List.map (fun (q, c) -> ("cycles." ^ q, c, "cycles")) cycles
    else begin
      let own = w.per_layer ~rounds in
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k Layers.all) then
            failwith ("per-layer metric missing from Layers.all: " ^ k))
        own;
      let base = Option.get untraced_s in
      (* like against like: whole-round sums, traced median vs the one
         untraced round *)
      (("trace.round_s", round_s, "s")
      :: ("trace.overhead_s", median (List.map sum !times) -. base, "s")
      :: List.filter_map
           (fun (k, unit) ->
             if String.starts_with ~prefix:"trace." k then None
             else
               Some (k, Option.value ~default:0.0 (List.assoc_opt k own), unit))
           Layers.all)
    end
  in
  if traced then
    Span.write
      (Printf.sprintf "perfbench/out/trace-%s-s%d.jsonl" w.name seed);
  let show xs = String.concat " " (List.rev_map (Printf.sprintf "%.3f") xs) in
  Printf.printf
    "%s seed=%d rounds=%d round_s=%.4f setup_s=%.4f\n\
     round times (reference speed): %s\nround wall times: %s\n"
    w.name seed rounds round_s setup_s
    (show (List.map sum !times)) (show !walls);
  let correct = !failed = !expected && not (List.mem "simulated cycles differ between rounds" !errors) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (k, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
              (json_num v) unit)
          metrics))
