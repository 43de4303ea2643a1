"""The nonlocal velocity map rho -> v = -grad(-Delta)^{-1}(rho - M).

On the torus it is one spectral call, `-spectral.inverse_gradient(rho - M)`,
made where a velocity is needed (the semi-Lagrangian oracle of
`characteristics`); on the line it is v(x) = F(x), the profile's
cumulative deviation, which the characteristics use in closed form.  The
module holds no function: it stays a layer of the package's namespace,
which the benchmark's tracer names.
"""
