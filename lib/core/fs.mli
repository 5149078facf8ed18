(** The single full-system controller baseline of §5: one 4×2 MIMO with
    individual control inputs for each cluster, power-oriented gains, and
    (chip power, QoS) as measured outputs — "a representative for [Zhang
    & Hoffmann ASPLOS'16], maximizing performance under a power cap".

    Its larger state space is what produces the sluggish Emergency-phase
    settling the paper reports (2.07 s vs SPECTR's 1.28 s, §5.1.1). *)

val make : unit -> Manager.t
