(** Delta-debugging shrinker for failing campaign cells.

    Given a cell whose run violates an invariant, find a smaller cell
    that still does: first drop the kill drill if the violation survives
    without it, then remove fault injections one at a time to a
    fixpoint (ddmin), then bisect each surviving window — stop toward
    start, start toward stop — while the violation persists.  A
    permanent fault keeps its infinite stop; only its onset is bisected,
    against the end of the cell's run.

    Every candidate is judged by re-running it through the caller's
    [violates] predicate (typically {!Engine.run_cell} filtered to the
    original finding's invariant), so the result is exactly as
    deterministic as the engine: a minimized cell is a replayable
    reproducer, not a heuristic guess. *)

type result = {
  cell : Campaign.cell;  (** The minimized (still-violating) cell. *)
  evaluations : int;  (** Scenario runs spent. *)
  shrunk : bool;  (** At least one reduction was accepted. *)
}

val minimize :
  ?eval_budget:int ->
  violates:(Campaign.cell -> bool) ->
  Campaign.cell ->
  result
(** [minimize ~violates cell] assumes [violates cell = true] (the
    original finding).  At most [eval_budget] (default 48) candidate
    runs are spent; when the budget runs out the current best — which
    always still violates — is returned. *)
