(* Self-test: plant one fault per workload and require that workload to
   report a failed operation beyond the failures it expects.

     dune exec perfbench/selftest.exe

   Exits 1 if any planted fault goes unnoticed. *)

open Common

let planted =
  [
    (Paper_sweep.workload, Perturb_cycles, 2);
    (Explore_cells.workload, Force_inconsistent, 1);
    (Audit.workload, Fake_lock_cycle, 1);
    (Host_mix.workload, Drop_host_element, 1);
  ]

let () =
  let missed =
    List.filter
      (fun (w, plant, rounds) ->
        let round = w.setup ~seed:42 ~plant () in
        let unexpected = ref 0 and errors = ref [] in
        for _ = 1 to rounds do
          let r = round () in
          unexpected := !unexpected + r.failed - r.expected;
          errors := !errors @ r.errors
        done;
        Printf.printf "%-12s %s\n%!" w.name
          (if !unexpected > 0 then
             Printf.sprintf "planted fault detected (%d failed): %s" !unexpected
               (String.concat "; " !errors)
           else "planted fault NOT detected");
        !unexpected = 0)
      planted
  in
  exit (if missed = [] then 0 else 1)
