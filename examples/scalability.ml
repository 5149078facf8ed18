(* Scalability of classical control: why SPECTR decomposes.

   Reproduces the two §2 arguments interactively:
   - system-identification accuracy degrades as the controller's scope
     grows (2x2 per-cluster vs 4x2 full-system vs 10x10 per-core), and
   - a single MIMO's computational cost explodes with core count
     (Figure 6's multiply-add model).

     dune exec examples/scalability.exe
*)

open Spectr

let () =
  print_endline "Identification accuracy vs controller scope";
  print_endline "(cross-validated on held-out data, microbenchmark workload)";
  List.iter
    (fun subsystem ->
      let ident = Design_flow.identify subsystem in
      let chans =
        (Design_flow.validation ident).Spectr_sysid.Validation.channels
      in
      let n = float_of_int (Array.length chans) in
      let avg f = Array.fold_left (fun acc c -> acc +. f c) 0. chans /. n in
      Printf.printf
        "  %-12s  avg fit %5.1f%%   avg R² %5.3f   residual-whiteness \
         violations %4.1f per channel\n"
        (Design_flow.subsystem_name subsystem)
        (avg (fun c -> c.Spectr_sysid.Validation.fit_percent))
        (avg (fun c -> c.Spectr_sysid.Validation.r_squared))
        (avg (fun c -> float_of_int c.Spectr_sysid.Validation.violations)))
    [
      Design_flow.Big_2x2;
      Design_flow.Little_2x2;
      Design_flow.Fs_4x2;
      Design_flow.Large_10x10;
    ];

  print_endline "";
  print_endline "Controller cost vs core count (Figure 6 model)";
  Printf.printf "  %6s %14s %14s %14s\n" "cores" "order 2" "order 4" "order 8";
  List.iter
    (fun cores ->
      Printf.printf "  %6d %14.3e %14.3e %14.3e\n" cores
        (Ops_cost.paper_curve ~cores ~order:2)
        (Ops_cost.paper_curve ~cores ~order:4)
        (Ops_cost.paper_curve ~cores ~order:8))
    [ 2; 4; 8; 16; 32; 48; 64; 70 ];
  print_endline "";
  print_endline
    "  -> a monolithic MIMO is infeasible at many-core scale; SPECTR's\n\
    \     per-cluster controllers + supervisory coordination sidestep both\n\
    \     problems (modular decomposition, Section 3.1)."
