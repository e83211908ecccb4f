"""Independent numerical oracles shared by the unit and acceptance tests."""

import numpy as np
import scipy.sparse as sp

_WEIGHTS = np.array([1.0, 2.0, 1.0])


def trace_reduce(a):
    """tr A of packed 2-D tensors as a numpy reduction over the diagonal components."""
    return a[..., [0, 2]].sum(axis=-1)


def ddot_reduce(a, b):
    """A:B of packed 2-D tensors as a weighted numpy reduction over the components."""
    return ((a * b) * _WEIGHTS).sum(axis=-1)


def dev_decompose_reduce(a):
    """(dev A, tr A / 2) with the trace taken by ``trace_reduce``."""
    mean = trace_reduce(a) / 2
    out = a.astype(float, copy=True)
    for i in (0, 2):
        out[..., i] -= mean
    return out, mean


def cauchy_distances_all_pairs(sigmas, areas, times):
    """L2-in-time, L2-in-space distances of consecutive stress histories, all held at once.

    ``sigmas`` is a list of (M+1, n_cells, 3) histories, one per eps.
    """
    out = []
    for a, b in zip(sigmas, sigmas[1:]):
        d = a - b
        per_time_sq = (areas * ddot_reduce(d, d)).sum(axis=-1)
        out.append(np.sqrt(np.trapezoid(per_time_sq, times)))
    return np.array(out)


def scalar_prox_golden_section(g_mod, kappa, s_norm, iters=80):
    """Golden-section minimizer of the ray-restricted incremental objective
    phi(x) = (g/2)(s/g - x)^2 + kappa*x over x in [0, s/g].

    Comparisons use the exact algebraic difference
    phi(c) - phi(d) = (c - d) * (kappa - s + g*(c + d)/2),
    so the search is not limited by cancellation in phi itself and the
    bracket genuinely shrinks to ~(0.618)^iters of the initial interval.
    """
    invphi = (np.sqrt(5) - 1) / 2
    a, b = 0.0, s_norm / g_mod
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(iters):
        diff_sign = (c - d) * (kappa - s_norm + 0.5 * g_mod * (c + d))
        if diff_sign < 0:  # phi(c) < phi(d)
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def square_mesh_loop(n, dirichlet_faces):
    """The square mesh built cell by cell and edge by edge: (triangles, areas, boundary rows).

    Each boundary row is (end nodes, outward normal, length, cell, Dirichlet?, face); the rows
    run bottom, right, top, left, each face's edges in increasing coordinate, each edge
    oriented counter-clockwise.
    """
    def nid(i, j):
        return j * (n + 1) + i

    def cell_of(i, j, upper):
        return 2 * (j * n + i) + (1 if upper else 0)

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((v00, v10, v11))  # lower-right of the cell
            tris.append((v00, v11, v01))  # upper-left of the cell
    triangles = np.array(tris, dtype=int)

    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    v = np.column_stack([xx.ravel(), yy.ravel()])[triangles]
    areas = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )

    h = 1.0 / n
    rows = []
    for k in range(n):
        rows.append(((nid(k, 0), nid(k + 1, 0)), (0.0, -1.0), h, cell_of(k, 0, upper=False),
                     "bottom" in dirichlet_faces, "bottom"))
    for k in range(n):
        rows.append(((nid(n, k), nid(n, k + 1)), (1.0, 0.0), h, cell_of(n - 1, k, upper=False),
                     "right" in dirichlet_faces, "right"))
    for k in range(n):
        rows.append(((nid(k + 1, n), nid(k, n)), (0.0, 1.0), h, cell_of(k, n - 1, upper=True),
                     "top" in dirichlet_faces, "top"))
    for k in range(n):
        rows.append(((nid(0, k + 1), nid(0, k)), (-1.0, 0.0), h, cell_of(0, k, upper=True),
                     "left" in dirichlet_faces, "left"))
    return triangles, areas, rows


def body_load_vector_loop(mesh, f_cells):
    """int f . phi by per-vertex scatter-adds, one vertex slot at a time."""
    F = np.zeros(2 * mesh.n_nodes)
    w = mesh.areas / 3.0
    for a in range(3):
        np.add.at(F, 2 * mesh.triangles[:, a], w * f_cells[:, 0])
        np.add.at(F, 2 * mesh.triangles[:, a] + 1, w * f_cells[:, 1])
    return F


def traction_load_vector_loop(mesh, g_edges):
    """int_Gamma_N g . phi edge by edge: half the edge length to each end node."""
    F = np.zeros(2 * mesh.n_nodes)
    for g, edge in zip(g_edges, mesh.neumann_edges):
        half = 0.5 * edge.length
        for node in edge.nodes:
            F[2 * node] += half * g[0]
            F[2 * node + 1] += half * g[1]
    return F


def datum_strains_stacked(program):
    """E w_k of every grid time of a load program by one product of ``mesh.B``,
    (M+1, n_cells, 3)."""
    n_t = len(program.times)
    ew = program.mesh.B @ program.w.reshape(n_t, -1).T  # (3 n_cells, n_t)
    return ew.T.reshape(n_t, program.mesh.n_cells, 3)


def load_vectors_stacked(mesh, f, g):
    """The load vectors of stacked body loads ``f`` and tractions ``g``, one product per
    load map, (len(f), 2 n_nodes) with C-contiguous rows."""
    loads = mesh.body_load_map @ f.reshape(len(f), -1).T
    loads += mesh.traction_load_map @ g.reshape(len(g), -1).T
    return np.ascontiguousarray(loads.T)


def flux_residual_loop(mesh, sigma, g_edges):
    """L2(Gamma_N) mismatch between the cell tractions sigma.nu and g, edge by edge."""
    flux_sq = 0.0
    for g, edge in zip(g_edges, mesh.neumann_edges):
        s = sigma[edge.cell]
        t = np.array([
            s[0] * edge.normal[0] + s[1] * edge.normal[1],
            s[1] * edge.normal[0] + s[2] * edge.normal[1],
        ])
        flux_sq += edge.length * float(((t - g) ** 2).sum())
    return float(np.sqrt(flux_sq))


def strain_matrix_loop(mesh):
    """The strain operator B assembled in COO form vertex by vertex, from the gradients of the
    barycentric functions; rows (cell, e11/e12/e22), columns the interleaved nodal dofs, and
    only its nonzero entries kept."""
    v = mesh.nodes[mesh.triangles]
    x, y = v[..., 0], v[..., 1]
    a2 = 2.0 * mesh.areas
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / a2[:, None]
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / a2[:, None]
    rows, cols, vals = [], [], []
    cell_rows = 3 * np.arange(mesh.n_cells)
    for a in range(3):
        dofx = 2 * mesh.triangles[:, a]
        dofy = dofx + 1
        # e11 = du1/dx
        rows.append(cell_rows + 0); cols.append(dofx); vals.append(gx[:, a])
        # e12 = (du1/dy + du2/dx) / 2
        rows.append(cell_rows + 1); cols.append(dofx); vals.append(0.5 * gy[:, a])
        rows.append(cell_rows + 1); cols.append(dofy); vals.append(0.5 * gx[:, a])
        # e22 = du2/dy
        rows.append(cell_rows + 2); cols.append(dofy); vals.append(gy[:, a])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    B = sp.coo_matrix((vals, (rows, cols)), shape=(3 * mesh.n_cells, 2 * mesh.n_nodes)).tocsr()
    B.eliminate_zeros()
    return B


def sweep_sequential(config):
    """A sweep run one epsilon after the other, every stress history held, as
    ``(trajectories, cauchy_distances, limit_sigma, limit_ev)``: one dict of monitor
    columns per eps, keyed as ``EpsTrajectory``'s fields, and the last eps's stress and
    velocity-strain histories. The monitors are the package's own reductions, so a
    sweep that takes them step by step in any order matches this bit for bit."""
    from rigiplast.evolution import bd_norm_surrogate, evolve
    from rigiplast.fem import ElasticSystem, scalar_l2, strain_of, tensor_l2
    from rigiplast.tensors import ddot, norm

    bench = config.build_benchmark()
    mesh, program, kappa = bench.mesh, bench.program, bench.yield_set.radius
    areas, times = mesh.areas, program.times
    trajectories, distances, sigma_prev = [], [], None
    for eps in config.epsilon_list:
        system = ElasticSystem(mesh, bench.hooke.with_epsilon(eps))
        states, infos = zip(*evolve(program, system, bench.yield_set,
                                    mode=config.boundary_mode, stress_tol=config.stress_tol))
        sigma = np.stack([st.sigma for st in states])
        ev = np.zeros_like(sigma)
        for k in range(1, len(times)):
            ev[k] = strain_of((states[k].u - states[k - 1].u) / (times[k] - times[k - 1]), mesh)
        hydro = [0.5 * (st.sigma[:, 0] + st.sigma[:, 2]) for st in states]
        gap = [kappa * norm(e) - ddot(st.sigma_dev, e) for st, e in zip(states, ev)]
        trajectories.append({
            "e_l2": np.array([tensor_l2(areas, st.e) for st in states]),
            "sigma_l2": np.array([tensor_l2(areas, st.sigma) for st in states]),
            "sigma_dev_max": np.array([info.max_sigma_dev for info in infos]),
            "dp_mass_cum": np.cumsum([info.dissipation for info in infos]) / kappa,
            "u_bd": np.array([bd_norm_surrogate(mesh, st.u, st.eu_norm) for st in states]),
            "div_u_l2": np.array([scalar_l2(areas, st.eu[:, 0] + st.eu[:, 2]) for st in states]),
            "hydro_dev": np.array([scalar_l2(areas, h - float((areas * h).sum() / areas.sum()))
                                   for h in hydro]),
            "flow_gap_rate": np.array([0.0] + [float((areas * g).sum()) for g in gap[1:]]),
            "diss_rate": np.array([0.0] + [float((areas * kappa * norm(e)).sum())
                                           for e in ev[1:]]),
        })
        if sigma_prev is not None:
            d = np.array([tensor_l2(areas, a - b) for a, b in zip(sigma_prev, sigma)])
            distances.append(np.sqrt(float(np.trapezoid(d**2, times))))
        sigma_prev = sigma
    return trajectories, np.array(distances), sigma_prev, ev
