include Dhdl_util.Json (* kept for perfbench/, which names Dhdl_serve.Json *)
