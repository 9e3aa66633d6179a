//! The paper's benchmark programs (Section 3), re-implemented in the core
//! language with the same memory behaviour:
//!
//! * **Array**, **Tree** — micro-benchmarks written specifically to
//!   maximize the ratio of (checked) reference assignments to other
//!   computation;
//! * **Water**, **Barnes** — scientific computations: arithmetic-heavy
//!   time-stepped simulations over object graphs allocated in regions;
//! * **ImageRec** — an image-recognition pipeline with six stages
//!   (`load`, `cross`, `threshold`, `hysteresis`, `thinning`, `save`);
//! * **http**, **game**, **phone** — servers whose running time is
//!   dominated by (simulated) network I/O, handled per-request in a shared
//!   region's subregion.
//!
//! Every program allocates its primary data structures in regions (never
//! the garbage-collected heap), as in the paper's implementations.

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests.
    Smoke,
    /// Inputs big enough for stable Figure 12 ratios.
    Paper,
}

/// Which group a benchmark belongs to (used for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Check-density micro-benchmark.
    Micro,
    /// Scientific computation.
    Scientific,
    /// The whole image-recognition pipeline.
    ImageRec,
    /// One stage of the image-recognition pipeline.
    ImageStage,
    /// Network server.
    Server,
}

impl Category {
    /// Stable lower-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Category::Micro => "micro",
            Category::Scientific => "scientific",
            Category::ImageRec => "image_rec",
            Category::ImageStage => "image_stage",
            Category::Server => "server",
        }
    }
}

/// A benchmark program: name, source text, category.
#[derive(Debug, Clone)]
pub struct BenchProgram {
    /// Program name as in the paper's tables.
    pub name: &'static str,
    /// Full source text in the core language.
    pub source: String,
    /// Reporting category.
    pub category: Category,
}

/// All benchmark programs at the given scale, in the paper's table order.
pub fn all(scale: Scale) -> Vec<BenchProgram> {
    vec![
        BenchProgram {
            name: "Array",
            source: array(scale),
            category: Category::Micro,
        },
        BenchProgram {
            name: "Tree",
            source: tree(scale),
            category: Category::Micro,
        },
        BenchProgram {
            name: "Water",
            source: water(scale),
            category: Category::Scientific,
        },
        BenchProgram {
            name: "Barnes",
            source: barnes(scale),
            category: Category::Scientific,
        },
        BenchProgram {
            name: "ImageRec",
            source: imagerec(scale, ImageStage::All),
            category: Category::ImageRec,
        },
        BenchProgram {
            name: "load",
            source: imagerec(scale, ImageStage::Load),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "cross",
            source: imagerec(scale, ImageStage::Cross),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "threshold",
            source: imagerec(scale, ImageStage::Threshold),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "hysteresis",
            source: imagerec(scale, ImageStage::Hysteresis),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "thinning",
            source: imagerec(scale, ImageStage::Thinning),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "save",
            source: imagerec(scale, ImageStage::Save),
            category: Category::ImageStage,
        },
        BenchProgram {
            name: "http",
            source: http(scale),
            category: Category::Server,
        },
        BenchProgram {
            name: "game",
            source: game(scale),
            category: Category::Server,
        },
        BenchProgram {
            name: "phone",
            source: phone(scale),
            category: Category::Server,
        },
    ]
}

/// The `Array` micro-benchmark: two parallel cell chains in one region;
/// every pass copies item references between them with the assignments
/// unrolled, maximizing the assignment/computation ratio.
pub fn array(scale: Scale) -> String {
    let (n, passes) = match scale {
        Scale::Smoke => (16, 2),
        Scale::Paper => (512, 60),
    };
    format!(
        r#"// Array: reference-assignment micro-benchmark (Figure 12, row 1).
class Item<Owner o> {{ int v; }}
class Cell<Owner o> {{ Item<o> item; Cell<o> next; }}
{{
    (RHandle<r> h) {{
        let n = {n};
        let Cell<r> src = null;
        let Cell<r> dst = null;
        let i = 0;
        while (i < n) {{
            let c = new Cell<r>;
            let it = new Item<r>;
            it.v = i;
            c.item = it;
            c.next = src;
            src = c;
            let d = new Cell<r>;
            d.next = dst;
            dst = d;
            i = i + 1;
        }}
        let p = 0;
        while (p < {passes}) {{
            let s = src;
            let d = dst;
            while (s != null) {{
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                d.item = s.item;
                s = s.next;
                d = d.next;
            }}
            p = p + 1;
        }}
        let check = 0;
        let d2 = dst;
        while (d2 != null) {{
            check = check + d2.item.v;
            d2 = d2.next;
        }}
        print(check);
    }}
}}
"#
    )
}

/// The `Tree` micro-benchmark: builds a binary tree in a region, then
/// repeatedly swaps children (reference assignments with recursion
/// overhead).
pub fn tree(scale: Scale) -> String {
    let (depth, passes) = match scale {
        Scale::Smoke => (4, 2),
        Scale::Paper => (12, 24),
    };
    format!(
        r#"// Tree: pointer-swap micro-benchmark (Figure 12, row 2).
class TreeNode<Owner o> {{ TreeNode<o> left; TreeNode<o> right; int v; }}
class TreeBench<Owner o> {{
    TreeNode<o> build(int depth) {{
        if (depth == 0) {{ return null; }}
        let n = new TreeNode<o>;
        n.v = depth;
        n.left = this.build(depth - 1);
        n.right = this.build(depth - 1);
        return n;
    }}
    void swap(TreeNode<o> n) {{
        if (n == null) {{ return; }}
        let l = n.left;
        let r = n.right;
        n.left = r;
        n.right = l;
        n.left = l;
        n.right = r;
        n.left = r;
        n.right = l;
        n.left = l;
        n.right = r;
        n.left = r;
        n.right = l;
        n.left = l;
        n.right = r;
        n.left = r;
        n.right = l;
        n.left = r;
        n.right = l;
        if (l != null) {{ this.swap(l); }}
        if (r != null) {{ this.swap(r); }}
    }}
    int sum(TreeNode<o> n) {{
        if (n == null) {{ return 0; }}
        return n.v + this.sum(n.left) + this.sum(n.right);
    }}
}}
{{
    (RHandle<r> h) {{
        let b = new TreeBench<r>;
        let root = b.build({depth});
        let p = 0;
        while (p < {passes}) {{
            b.swap(root);
            p = p + 1;
        }}
        print(b.sum(root));
    }}
}}
"#
    )
}

/// The `Water` scientific benchmark: a chain of molecules advanced through
/// time steps with neighbour interactions — arithmetic-heavy with
/// moderate reference traffic.
pub fn water(scale: Scale) -> String {
    let (n, steps) = match scale {
        Scale::Smoke => (8, 2),
        Scale::Paper => (216, 24),
    };
    format!(
        r#"// Water: time-stepped simulation of water molecules (Figure 12, row 3).
// Each molecule has three atoms (H-O-H); every step runs the classic
// phases: predict, intra-molecular forces, inter-molecular forces,
// correct, and boundary wrap-around, double-buffering atom positions.
class Vec3<Owner o> {{ int x; int y; int z; }}
class Atom<Owner o> {{
    Vec3<o> pos;
    Vec3<o> vel;
    Vec3<o> old;
    Vec3<o> oldVel;
}}
class Molecule<Owner o> {{
    Atom<o> h1;
    Atom<o> oxy;
    Atom<o> h2;
    Molecule<o> cache;
    Molecule<o> next;
}}
class Sim<Owner o> {{
    Molecule<o> first;
    int boxSize;

    // Predictor: advance each atom by its velocity, remembering the
    // previous position object (the double-buffer reference store).
    void predictAtom(Atom<o> a) {{
        a.old = a.pos;
        let p = a.pos;
        let v = a.vel;
        p.x = p.x + v.x / 16;
        p.y = p.y + v.y / 16;
        p.z = p.z + v.z / 16;
    }}
    void predict() {{
        let m = this.first;
        while (m != null) {{
            this.predictAtom(m.h1);
            this.predictAtom(m.oxy);
            this.predictAtom(m.h2);
            m = m.next;
        }}
    }}

    // Intra-molecular forces: bond stretching between O and each H.
    void bond(Atom<o> a, Atom<o> b) {{
        let pa = a.pos;
        let pb = b.pos;
        let dx = pa.x - pb.x;
        let dy = pa.y - pb.y;
        let dz = pa.z - pb.z;
        let d2 = dx * dx + dy * dy + dz * dz + 1;
        let stretch = d2 - 96;
        let k = stretch * 128 / d2;
        let va = a.vel;
        let vb = b.vel;
        va.x = va.x - k * dx / 64;
        va.y = va.y - k * dy / 64;
        va.z = va.z - k * dz / 64;
        vb.x = vb.x + k * dx / 64;
        vb.y = vb.y + k * dy / 64;
        vb.z = vb.z + k * dz / 64;
    }}
    void intraf() {{
        let m = this.first;
        while (m != null) {{
            this.bond(m.oxy, m.h1);
            this.bond(m.oxy, m.h2);
            m = m.next;
        }}
    }}

    // Inter-molecular forces: Lennard-Jones between oxygen centres of
    // neighbouring molecules (neighbour list along the chain).
    void interact(Molecule<o> a, Molecule<o> b) {{
        let pa = a.oxy.pos;
        let pb = b.oxy.pos;
        let dx = pa.x - pb.x;
        let dy = pa.y - pb.y;
        let dz = pa.z - pb.z;
        let d2 = dx * dx + dy * dy + dz * dz + 1;
        let inv = 100000000 / d2;
        let inv2 = inv / d2 + 1;
        let r6 = inv2 * inv2 * inv2 % 1000003;
        let r12 = r6 * r6 % 1000003;
        let shifted = (r12 - r6) / 4096;
        let damped = shifted * 31 / 32 + shifted / 64;
        let f = damped + inv / 512;
        let fx = f * dx / d2;
        let fy = f * dy / d2;
        let fz = f * dz / d2;
        let va = a.oxy.vel;
        let vb = b.oxy.vel;
        va.x = va.x + fx / 16;
        va.y = va.y + fy / 16;
        va.z = va.z + fz / 16;
        vb.x = vb.x - fx / 16;
        vb.y = vb.y - fy / 16;
        vb.z = vb.z - fz / 16;
    }}
    void interf() {{
        let m = this.first;
        while (m != null) {{
            let nb = m.next;
            if (nb != null) {{
                m.cache = nb;
                nb.cache = m;
                this.interact(m, nb);
                let nb2 = nb.next;
                if (nb2 != null) {{
                    this.interact(m, nb2);
                }}
            }}
            m = m.next;
        }}
    }}

    // Corrector: damp velocities (the paper's higher-order corrector,
    // folded into one damping pass in fixed point).
    void correctAtom(Atom<o> a) {{
        let v = a.vel;
        v.x = v.x * 15 / 16;
        v.y = v.y * 15 / 16;
        v.z = v.z * 15 / 16;
    }}
    void correct() {{
        let m = this.first;
        while (m != null) {{
            // The corrector double-buffers the oxygen velocity.
            m.oxy.oldVel = m.oxy.vel;
            this.correctAtom(m.h1);
            this.correctAtom(m.oxy);
            this.correctAtom(m.h2);
            m = m.next;
        }}
    }}

    // Periodic boundary conditions on the oxygen centre.
    void boundary() {{
        let box = this.boxSize;
        let m = this.first;
        while (m != null) {{
            let p = m.oxy.pos;
            if (p.x > box) {{ p.x = p.x - box; }}
            if (p.x < 0) {{ p.x = p.x + box; }}
            if (p.y > box) {{ p.y = p.y - box; }}
            if (p.y < 0) {{ p.y = p.y + box; }}
            if (p.z > box) {{ p.z = p.z - box; }}
            if (p.z < 0) {{ p.z = p.z + box; }}
            m = m.next;
        }}
    }}

    void step() {{
        this.predict();
        this.intraf();
        this.interf();
        this.correct();
        this.boundary();
    }}

    int kineticEnergy() {{
        let e = 0;
        let m = this.first;
        while (m != null) {{
            let v = m.oxy.vel;
            e = e + v.x * v.x + v.y * v.y + v.z * v.z;
            let vh = m.h1.vel;
            e = e + (vh.x * vh.x + vh.y * vh.y + vh.z * vh.z) / 16;
            let vh2 = m.h2.vel;
            e = e + (vh2.x * vh2.x + vh2.y * vh2.y + vh2.z * vh2.z) / 16;
            m = m.next;
        }}
        return e;
    }}
}}
class Builder<Owner o> {{
    Atom<o> atom(int x, int y, int z) {{
        let a = new Atom<o>;
        let p = new Vec3<o>;
        p.x = x;
        p.y = y;
        p.z = z;
        a.pos = p;
        a.vel = new Vec3<o>;
        return a;
    }}
    Molecule<o> molecule(int seed) {{
        let m = new Molecule<o>;
        let x = seed * 37 % 100;
        let y = seed * 73 % 100;
        let z = seed * 19 % 100;
        m.oxy = this.atom(x, y, z);
        m.h1 = this.atom(x + 6, y + 4, z);
        m.h2 = this.atom(x - 6, y + 4, z);
        return m;
    }}
}}
{{
    (RHandle<r> h) {{
        let sim = new Sim<r>;
        sim.boxSize = 128;
        let maker = new Builder<r>;
        let i = 0;
        let Molecule<r> chain = null;
        while (i < {n}) {{
            let m = maker.molecule(i);
            m.next = chain;
            chain = m;
            i = i + 1;
        }}
        sim.first = chain;
        let s = 0;
        while (s < {steps}) {{
            sim.step();
            s = s + 1;
        }}
        print(sim.kineticEnergy());
    }}
}}
"#
    )
}

/// The `Barnes` scientific benchmark: builds a space-partitioning tree and
/// computes per-body forces by walking it — the most arithmetic per
/// reference of the group.
pub fn barnes(scale: Scale) -> String {
    let (depth, bodies, steps) = match scale {
        Scale::Smoke => (2, 8, 2),
        Scale::Paper => (4, 128, 12),
    };
    format!(
        r#"// Barnes: Barnes-Hut N-body simulation (Figure 12, row 4).
// Every step rebuilds the quad-tree, recomputes centres of mass bottom-up,
// computes per-body forces with the opening criterion, and advances bodies.
class Pos<Owner o> {{ int x; int y; }}
class QTree<Owner o> {{
    QTree<o> nw; QTree<o> ne; QTree<o> sw; QTree<o> se;
    Body<o> members;
    int mass;
    int cx; int cy;
    int size;
}}
class Body<Owner o> {{
    Pos<o> pos;
    Pos<o> old;
    QTree<o> cell;
    Body<o> sib; // sibling in the same leaf cell
    int mass;
    int vx; int vy;
    Body<o> next;
}}
class Nbody<Owner o> {{
    QTree<o> root;
    Body<o> bodies;
    int theta2; // squared opening threshold

    // Rebuild the spatial tree (fresh nodes each step, as Barnes-Hut
    // implementations do; the old tree dies with the enclosing region).
    QTree<o> build(int depth, int cx, int cy, int size) {{
        let n = new QTree<o>;
        n.cx = cx;
        n.cy = cy;
        n.size = size;
        n.mass = 0;
        if (depth > 0) {{
            let half = size / 2;
            n.nw = this.build(depth - 1, cx - half, cy - half, half);
            n.ne = this.build(depth - 1, cx + half, cy - half, half);
            n.sw = this.build(depth - 1, cx - half, cy + half, half);
            n.se = this.build(depth - 1, cx + half, cy + half, half);
        }}
        return n;
    }}

    QTree<o> quadrantFor(QTree<o> node, int x, int y) {{
        if (x < node.cx) {{
            if (y < node.cy) {{ return node.nw; }}
            return node.sw;
        }}
        if (y < node.cy) {{ return node.ne; }}
        return node.se;
    }}

    // Insert each body: walk to its leaf, adding mass on the way, and
    // remember the leaf in the body (a reference store per level).
    void insert(Body<o> b) {{
        let node = this.root;
        let p = b.pos;
        let QTree<o> leaf = null;
        while (node != null) {{
            node.mass = node.mass + b.mass;
            b.cell = node;
            leaf = node;
            node = this.quadrantFor(node, p.x, p.y);
        }}
        if (leaf != null) {{
            b.sib = leaf.members;
            leaf.members = b;
        }}
    }}

    // Centre-of-mass pass: weighted average of children, bottom-up.
    void summarize(QTree<o> node) {{
        if (node == null) {{ return; }}
        if (node.nw == null) {{ return; }}
        this.summarize(node.nw);
        this.summarize(node.ne);
        this.summarize(node.sw);
        this.summarize(node.se);
        let total = node.nw.mass + node.ne.mass + node.sw.mass + node.se.mass;
        if (total > 0) {{
            let wx = node.nw.cx * node.nw.mass + node.ne.cx * node.ne.mass
                   + node.sw.cx * node.sw.mass + node.se.cx * node.se.mass;
            let wy = node.nw.cy * node.nw.mass + node.ne.cy * node.ne.mass
                   + node.sw.cy * node.sw.mass + node.se.cy * node.se.mass;
            node.cx = wx / total;
            node.cy = wy / total;
        }}
    }}

    void force(Body<o> body, QTree<o> node) {{
        if (node == null) {{ return; }}
        if (node.mass == 0) {{ return; }}
        let p = body.pos;
        let dx = node.cx - p.x;
        let dy = node.cy - p.y;
        let d2 = dx * dx + dy * dy + 1;
        // Opening criterion: s^2 / d^2 < theta^2 uses the summary;
        // otherwise recurse into the children.
        if (node.nw == null || node.size * node.size < d2 * this.theta2 / 64) {{
            let inv = 100000000 / d2;
            let f = node.mass * inv / 1024;
            body.vx = body.vx + f * dx / d2 / 64;
            body.vy = body.vy + f * dy / d2 / 64;
            return;
        }}
        this.force(body, node.nw);
        this.force(body, node.ne);
        this.force(body, node.sw);
        this.force(body, node.se);
    }}

    void advance(Body<o> b) {{
        b.old = b.pos;
        let p = b.pos;
        p.x = p.x + b.vx / 16;
        p.y = p.y + b.vy / 16;
        if (p.x > 128) {{ p.x = 128; }}
        if (p.x < -128) {{ p.x = -128; }}
        if (p.y > 128) {{ p.y = 128; }}
        if (p.y < -128) {{ p.y = -128; }}
    }}

    void step(int depth) {{
        this.root = this.build(depth, 0, 0, 128);
        let b = this.bodies;
        while (b != null) {{
            this.insert(b);
            b = b.next;
        }}
        this.summarize(this.root);
        b = this.bodies;
        while (b != null) {{
            this.force(b, this.root);
            this.advance(b);
            b = b.next;
        }}
    }}

    int energy() {{
        let e = 0;
        let q = this.bodies;
        while (q != null) {{
            e = e + q.vx * q.vx + q.vy * q.vy;
            q = q.next;
        }}
        return e;
    }}
}}
{{
    (RHandle<r> h) {{
        let sim = new Nbody<r>;
        sim.theta2 = 16;
        let i = 0;
        let Body<r> chain = null;
        while (i < {bodies}) {{
            let b = new Body<r>;
            let p = new Pos<r>;
            p.x = i * 29 % 121 - 60;
            p.y = i * 53 % 121 - 60;
            b.pos = p;
            b.mass = 1 + i % 3;
            b.next = chain;
            chain = b;
            i = i + 1;
        }}
        sim.bodies = chain;
        let s = 0;
        while (s < {steps}) {{
            sim.step({depth});
            s = s + 1;
        }}
        print(sim.energy());
    }}
}}
"#
    )
}

/// Which part of the image-recognition pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageStage {
    /// All six stages in sequence.
    All,
    /// Build the pixel chain (allocations + pointer stores).
    Load,
    /// Cross-correlation over a sliding window.
    Cross,
    /// Per-pixel thresholding.
    Threshold,
    /// Two-level hysteresis thresholding.
    Hysteresis,
    /// Morphological thinning.
    Thinning,
    /// Copy out to the output chain.
    Save,
}

/// The `ImageRec` pipeline or one of its stages.
pub fn imagerec(scale: Scale, stage: ImageStage) -> String {
    let pixels = match scale {
        Scale::Smoke => 64,
        Scale::Paper => 4096,
    };
    // Each stage loops several times so the stage itself (not building
    // the input image) dominates the measurement, mirroring the paper's
    // per-stage timings.
    let passes = match scale {
        Scale::Smoke => 2,
        Scale::Paper => 16,
    };
    let gate = |on: bool, body: &str| if on { body.to_string() } else { String::new() };
    let cross = gate(
        matches!(stage, ImageStage::All | ImageStage::Cross),
        "            pipe.cross();\n",
    );
    let threshold = gate(
        matches!(stage, ImageStage::All | ImageStage::Threshold),
        "            pipe.threshold(128);\n",
    );
    let hysteresis = gate(
        matches!(stage, ImageStage::All | ImageStage::Hysteresis),
        "            pipe.hysteresis(64, 192);\n",
    );
    let thinning = gate(
        matches!(stage, ImageStage::All | ImageStage::Thinning),
        "            pipe.thinning();\n",
    );
    let save = gate(
        matches!(stage, ImageStage::All | ImageStage::Save),
        "            pipe.save();\n",
    );
    format!(
        r#"// ImageRec: image-recognition pipeline (Figure 12, rows 5-11).
class Pixel<Owner o> {{ int v; Pixel<o> next; }}
class Pipeline<Owner o> {{
    Pixel<o> image;
    Pixel<o> output;
    void load(int n) {{
        io(n * 80); // read the raw image from disk
        let i = 0;
        let Pixel<o> chain = null;
        while (i < n) {{
            let p = new Pixel<o>;
            p.v = (i * 31 + i / 7) % 256;
            p.next = chain;
            chain = p;
            i = i + 1;
        }}
        this.image = chain;
    }}
    void cross() {{
        let p = this.image;
        let prev = 0;
        while (p != null) {{
            let nx = p.next;
            let nv = 0;
            if (nx != null) {{ nv = nx.v; }}
            let a = prev * 3 + p.v * 10 + nv * 3;
            let b = a / 16;
            let c = b * b % 257;
            p.v = (b + c) / 2 % 256;
            prev = p.v;
            p = nx;
        }}
    }}
    void threshold(int t) {{
        let p = this.image;
        while (p != null) {{
            let v = p.v;
            let s = v * 2 - t;
            if (s > t) {{ p.v = 255; }} else {{ p.v = 0; }}
            p = p.next;
        }}
    }}
    void hysteresis(int lo, int hi) {{
        let p = this.image;
        let strong = false;
        while (p != null) {{
            let v = p.v;
            if (v >= hi) {{
                p.v = 255;
                strong = true;
            }} else {{
                if (v >= lo && strong) {{ p.v = 255; }} else {{ p.v = 0; strong = false; }}
            }}
            p = p.next;
        }}
    }}
    void thinning() {{
        // Remove interior pixels of runs by unlinking them (pointer
        // rewiring gives this stage its small check overhead).
        let p = this.image;
        while (p != null) {{
            let nx = p.next;
            let keep = true;
            if (nx != null) {{
                let n2 = nx.next;
                if (n2 != null) {{
                    if (p.v > 64 && nx.v > 64 && n2.v > 64) {{ keep = false; }}
                }}
            }}
            if (!keep) {{
                let n2 = nx.next;
                p.next = n2;
            }}
            p = p.next;
        }}
    }}
    void save() {{
        // Copy the image into a fresh output chain, then write it out.
        let p = this.image;
        let Pixel<o> out = null;
        let n = 0;
        while (p != null) {{
            let q = new Pixel<o>;
            q.v = p.v;
            q.next = out;
            out = q;
            p = p.next;
            n = n + 1;
        }}
        this.output = out;
        io(n * 180); // write the result to disk
    }}
}}
{{
    (RHandle<r> h) {{
        let pipe = new Pipeline<r>;
        pipe.load({pixels});
        let pass = 0;
        while (pass < {passes}) {{
{cross}{threshold}{hysteresis}{thinning}{save}            pass = pass + 1;
        }}
        let sum = 0;
        let p = pipe.image;
        while (p != null) {{
            sum = sum + p.v;
            p = p.next;
        }}
        print(sum);
    }}
}}
"#
    )
}

/// The `http` server: connection handling, header parsing, routing, and
/// response generation, with per-request state in an LT subregion.
/// Running time is dominated by (simulated) network I/O.
pub fn http(scale: Scale) -> String {
    let requests = match scale {
        Scale::Smoke => 4,
        Scale::Paper => 64,
    };
    format!(
        r#"// http: web server; running time dominated by network processing.
regionKind ConnectionRegion extends SharedRegion {{
    subregion RequestRegion : LT(16384) NoRT req;
}}
regionKind RequestRegion extends SharedRegion {{
    Response<this> resp;
}}

class Header<Owner o> {{ int key; int value; Header<o> next; }}
class Request<Owner o> {{
    int method;        // 0 = GET, 1 = POST, 2 = HEAD
    int path;          // interned path id
    int version;
    Header<o> headers;
    int bodyLength;
}}
class Response<Owner o> {{
    int status;
    int length;
    Header<o> headers;
}}
class Route<Owner o> {{
    int path;
    int handler;
    Route<o> next;
}}
class Router<Owner o> {{
    Route<o> routes;
    void install(int path, int handler) {{
        let r = new Route<o>;
        r.path = path;
        r.handler = handler;
        r.next = this.routes;
        this.routes = r;
    }}
    int dispatch(int path) {{
        let r = this.routes;
        while (r != null) {{
            if (r.path == path) {{ return r.handler; }}
            r = r.next;
        }}
        return -1;
    }}
}}
class Stats<Owner o> {{
    int served;
    int errors;
    int bytes;
    void record(int status, int length) {{
        if (status == 200) {{ this.served = this.served + 1; }} else {{ this.errors = this.errors + 1; }}
        this.bytes = this.bytes + length;
    }}
}}
class Handler<ConnectionRegion conn> {{
    // Parses one request into the request region and builds the response.
    Request<rq> parse<Region rq>(RHandle<rq> h, int seq) accesses rq {{
        let req = new Request<rq>;
        req.method = seq % 3;
        req.path = seq % 7;
        req.version = 11;
        let i = 0;
        let Header<rq> hs = null;
        while (i < 8) {{
            let hd = new Header<rq>;
            hd.key = i;
            hd.value = seq * 7 + i;
            hd.next = hs;
            hs = hd;
            i = i + 1;
        }}
        req.headers = hs;
        let len = 0;
        let w = hs;
        while (w != null) {{
            len = len + w.value;
            w = w.next;
        }}
        req.bodyLength = len % 512;
        return req;
    }}
    Response<rq> respond<Region rq>(RHandle<rq> h, Request<rq> req, int handler)
        accesses rq {{
        let r = new Response<rq>;
        if (handler < 0) {{
            r.status = 404;
            r.length = 64;
            return r;
        }}
        if (req.method == 1) {{
            r.status = 201;
        }} else {{
            r.status = 200;
        }}
        let i = 0;
        let Header<rq> hs = null;
        while (i < 4) {{
            let hd = new Header<rq>;
            hd.key = 100 + i;
            hd.value = req.bodyLength + i;
            hd.next = hs;
            hs = hd;
            i = i + 1;
        }}
        r.headers = hs;
        r.length = 512 + req.bodyLength;
        return r;
    }}
}}
{{
    // The router and statistics live in immortal memory: they outlive
    // every connection.
    let router = new Router<immortal>;
    router.install(0, 10);
    router.install(1, 11);
    router.install(2, 12);
    router.install(3, 13);
    router.install(4, 14);
    let stats = new Stats<immortal>;
    (RHandle<ConnectionRegion : VT conn> h) {{
        let handler = new Handler<conn>;
        let n = 0;
        while (n < {requests}) {{
            io(9000); // accept + read the request from the network
            (RHandle<RequestRegion rq> hq = h.req) {{
                let req = handler.parse<rq>(hq, n);
                let which = router.dispatch(req.path);
                let resp = handler.respond<rq>(hq, req, which);
                hq.resp = resp;
                io(6000); // write the response to the network
                stats.record(resp.status, resp.length);
                hq.resp = null;
            }} // request region flushed: per-request state is gone
            n = n + 1;
        }}
        print(stats.served);
        print(stats.errors);
    }}
}}
"#
    )
}

/// The `game` server: per-tick world simulation (players, projectiles,
/// collisions) between network sends; I/O dominated.
pub fn game(scale: Scale) -> String {
    let ticks = match scale {
        Scale::Smoke => 4,
        Scale::Paper => 64,
    };
    format!(
        r#"// game: game server; per-tick updates to a small world state.
class Player<Owner o> {{
    int x; int y;
    int vx; int vy;
    int score; int hp;
    Player<o> next;
}}
class Projectile<Owner o> {{
    int x; int y;
    int dx; int dy;
    int ttl;
    Projectile<o> next;
}}
class World<Owner o> {{
    Player<o> players;
    Projectile<o> projectiles;
    int tickCount;

    void spawnPlayer(int seed) {{
        let p = new Player<o>;
        p.x = seed * 5 % 64;
        p.y = seed * 9 % 64;
        p.hp = 100;
        p.next = this.players;
        this.players = p;
    }}

    void fire(Player<o> from) {{
        let pr = new Projectile<o>;
        pr.x = from.x;
        pr.y = from.y;
        pr.dx = (from.score % 3) - 1;
        pr.dy = (from.x % 3) - 1;
        pr.ttl = 16;
        pr.next = this.projectiles;
        this.projectiles = pr;
    }}

    void movePlayers() {{
        let p = this.players;
        while (p != null) {{
            p.vx = p.vx + (p.score % 3) - 1;
            p.vy = p.vy + (p.x % 3) - 1;
            p.x = (p.x + p.vx) % 64;
            p.y = (p.y + p.vy) % 64;
            if (p.x < 0) {{ p.x = p.x + 64; }}
            if (p.y < 0) {{ p.y = p.y + 64; }}
            p.score = p.score + 1;
            p = p.next;
        }}
    }}

    void moveProjectiles() {{
        let pr = this.projectiles;
        while (pr != null) {{
            pr.x = pr.x + pr.dx;
            pr.y = pr.y + pr.dy;
            pr.ttl = pr.ttl - 1;
            pr = pr.next;
        }}
    }}

    void collide() {{
        let pr = this.projectiles;
        while (pr != null) {{
            if (pr.ttl > 0) {{
                let p = this.players;
                while (p != null) {{
                    let dx = p.x - pr.x;
                    let dy = p.y - pr.y;
                    if (dx * dx + dy * dy < 4) {{
                        p.hp = p.hp - 10;
                        pr.ttl = 0;
                    }}
                    p = p.next;
                }}
            }}
            pr = pr.next;
        }}
    }}

    void tick() {{
        this.movePlayers();
        this.moveProjectiles();
        this.collide();
        let p = this.players;
        while (p != null) {{
            if (p.score % 8 == 0) {{ this.fire(p); }}
            p = p.next;
        }}
        this.tickCount = this.tickCount + 1;
    }}

    int totalScore() {{
        let total = 0;
        let p = this.players;
        while (p != null) {{
            total = total + p.score;
            p = p.next;
        }}
        return total;
    }}
}}
{{
    (RHandle<r> h) {{
        let w = new World<r>;
        let i = 0;
        while (i < 8) {{
            w.spawnPlayer(i);
            i = i + 1;
        }}
        let t = 0;
        while (t < {ticks}) {{
            io(5000); // receive player inputs
            w.tick();
            io(3000); // broadcast the new state
            t = t + 1;
        }}
        print(w.totalScore());
    }}
}}
"#
    )
}

/// The `phone` server: a database-backed information server — bucketed
/// directory in immortal memory, per-query session objects in a local
/// region; I/O dominated.
pub fn phone(scale: Scale) -> String {
    let (queries, db_size) = match scale {
        Scale::Smoke => (4, 16),
        Scale::Paper => (64, 64),
    };
    format!(
        r#"// phone: database-backed information server.
class Entry<Owner o> {{
    int name;
    int number;
    int district;
    Entry<o> next;
}}
class Bucket<Owner o> {{
    Entry<o> entries;
    int count;
    void insert(Entry<o> e) {{
        e.next = this.entries;
        this.entries = e;
        this.count = this.count + 1;
    }}
    int lookup(int name) {{
        let e = this.entries;
        while (e != null) {{
            if (e.name == name) {{ return e.number; }}
            e = e.next;
        }}
        return -1;
    }}
}}
class Directory<Owner o> {{
    Bucket<o> b0; Bucket<o> b1; Bucket<o> b2; Bucket<o> b3;
    void init() {{
        this.b0 = new Bucket<o>;
        this.b1 = new Bucket<o>;
        this.b2 = new Bucket<o>;
        this.b3 = new Bucket<o>;
    }}
    Bucket<o> bucketFor(int name) {{
        let k = name % 4;
        if (k == 0) {{ return this.b0; }}
        if (k == 1) {{ return this.b1; }}
        if (k == 2) {{ return this.b2; }}
        return this.b3;
    }}
    void add(int name, int number, int district) {{
        let e = new Entry<o>;
        e.name = name;
        e.number = number;
        e.district = district;
        this.bucketFor(name).insert(e);
    }}
    int lookup(int name) {{
        return this.bucketFor(name).lookup(name);
    }}
}}
class Session<Owner o> {{
    int query;
    int answer;
    int billingUnits;
}}
{{
    // The database lives in immortal memory; it outlives every request.
    let db = new Directory<immortal>;
    db.init();
    let i = 0;
    while (i < {db_size}) {{
        db.add(i * 17 % {db_size}, 555000 + i, i % 9);
        i = i + 1;
    }}
    let answered = 0;
    let billed = 0;
    let q = 0;
    while (q < {queries}) {{
        io(7000); // receive a query from the network
        (RHandle<call> hc) {{
            let s = new Session<call>;
            s.query = q % {db_size};
            s.answer = db.lookup(s.query);
            if (s.answer > 0) {{
                s.billingUnits = 1 + s.query % 3;
                answered = answered + 1;
                billed = billed + s.billingUnits;
            }}
            io(3000); // send the answer
        }} // per-call region deleted
        q = q + 1;
    }}
    print(answered);
    print(billed);
}}
"#
    )
}

/// The server programs that have single-request variants for the
/// multi-tenant serving path (`rtjc serve` / `rtjc load`).
pub const SERVER_PROGRAMS: [&str; 3] = ["http", "game", "phone"];

/// A single-request variant of one of the [`SERVER_PROGRAMS`]: the same
/// classes and region discipline as the batch benchmark, but the main
/// block handles exactly **one** request (one connection / one tick / one
/// query), with `seq` baked in as the request payload.
///
/// These are the tenants of the multi-tenant server: each serving session
/// compiles a variant once (per distinct `seq`) and executes it on its
/// own session-local runtime, so a session is precisely "one request
/// through the paper's server workload". Returns `None` for names outside
/// [`SERVER_PROGRAMS`].
pub fn request_program(name: &str, seq: u32) -> Option<String> {
    match name {
        "http" => Some(http_request(seq)),
        "game" => Some(game_request(seq)),
        "phone" => Some(phone_request(seq)),
        _ => None,
    }
}

/// The first `variants` single-request programs (`seq = 0..variants`) of
/// a server benchmark, for round-robin request mixes. `None` for unknown
/// names.
pub fn request_variants(name: &str, variants: u32) -> Option<Vec<String>> {
    (0..variants.max(1))
        .map(|seq| request_program(name, seq))
        .collect()
}

/// `http`, request-shaped: route table in immortal memory, one request
/// parsed/dispatched/answered in an LT request subregion, then flushed.
fn http_request(seq: u32) -> String {
    let seq = seq % 64;
    format!(
        r#"// http (single request {seq}): one connection, one request-region cycle.
regionKind ConnectionRegion extends SharedRegion {{
    subregion RequestRegion : LT(16384) NoRT req;
}}
regionKind RequestRegion extends SharedRegion {{
    Response<this> resp;
}}

class Header<Owner o> {{ int key; int value; Header<o> next; }}
class Request<Owner o> {{
    int method;
    int path;
    int version;
    Header<o> headers;
    int bodyLength;
}}
class Response<Owner o> {{
    int status;
    int length;
    Header<o> headers;
}}
class Route<Owner o> {{
    int path;
    int handler;
    Route<o> next;
}}
class Router<Owner o> {{
    Route<o> routes;
    void install(int path, int handler) {{
        let r = new Route<o>;
        r.path = path;
        r.handler = handler;
        r.next = this.routes;
        this.routes = r;
    }}
    int dispatch(int path) {{
        let r = this.routes;
        while (r != null) {{
            if (r.path == path) {{ return r.handler; }}
            r = r.next;
        }}
        return -1;
    }}
}}
class Handler<ConnectionRegion conn> {{
    Request<rq> parse<Region rq>(RHandle<rq> h, int seq) accesses rq {{
        let req = new Request<rq>;
        req.method = seq % 3;
        req.path = seq % 7;
        req.version = 11;
        let i = 0;
        let Header<rq> hs = null;
        while (i < 8) {{
            let hd = new Header<rq>;
            hd.key = i;
            hd.value = seq * 7 + i;
            hd.next = hs;
            hs = hd;
            i = i + 1;
        }}
        req.headers = hs;
        let len = 0;
        let w = hs;
        while (w != null) {{
            len = len + w.value;
            w = w.next;
        }}
        req.bodyLength = len % 512;
        return req;
    }}
    Response<rq> respond<Region rq>(RHandle<rq> h, Request<rq> req, int handler)
        accesses rq {{
        let r = new Response<rq>;
        if (handler < 0) {{
            r.status = 404;
            r.length = 64;
            return r;
        }}
        if (req.method == 1) {{
            r.status = 201;
        }} else {{
            r.status = 200;
        }}
        let i = 0;
        let Header<rq> hs = null;
        while (i < 4) {{
            let hd = new Header<rq>;
            hd.key = 100 + i;
            hd.value = req.bodyLength + i;
            hd.next = hs;
            hs = hd;
            i = i + 1;
        }}
        r.headers = hs;
        r.length = 512 + req.bodyLength;
        return r;
    }}
}}
{{
    let router = new Router<immortal>;
    router.install(0, 10);
    router.install(1, 11);
    router.install(2, 12);
    router.install(3, 13);
    router.install(4, 14);
    (RHandle<ConnectionRegion : VT conn> h) {{
        let handler = new Handler<conn>;
        io(9000); // accept + read the request from the network
        (RHandle<RequestRegion rq> hq = h.req) {{
            let req = handler.parse<rq>(hq, {seq});
            let which = router.dispatch(req.path);
            let resp = handler.respond<rq>(hq, req, which);
            hq.resp = resp;
            io(6000); // write the response to the network
            print(resp.status);
            hq.resp = null;
        }} // request region flushed: per-request state is gone
    }}
}}
"#
    )
}

/// `game`, request-shaped: one tick of the world simulation — receive
/// inputs, update players/projectiles/collisions, broadcast.
fn game_request(seq: u32) -> String {
    let seq = seq % 64;
    format!(
        r#"// game (single tick {seq}): one simulation step of the world.
class Player<Owner o> {{
    int x; int y;
    int vx; int vy;
    int score; int hp;
    Player<o> next;
}}
class Projectile<Owner o> {{
    int x; int y;
    int dx; int dy;
    int ttl;
    Projectile<o> next;
}}
class World<Owner o> {{
    Player<o> players;
    Projectile<o> projectiles;
    int tickCount;

    void spawnPlayer(int seed) {{
        let p = new Player<o>;
        p.x = seed * 5 % 64;
        p.y = seed * 9 % 64;
        p.score = seed % 7;
        p.hp = 100;
        p.next = this.players;
        this.players = p;
    }}

    void fire(Player<o> from) {{
        let pr = new Projectile<o>;
        pr.x = from.x;
        pr.y = from.y;
        pr.dx = (from.score % 3) - 1;
        pr.dy = (from.x % 3) - 1;
        pr.ttl = 16;
        pr.next = this.projectiles;
        this.projectiles = pr;
    }}

    void movePlayers() {{
        let p = this.players;
        while (p != null) {{
            p.vx = p.vx + (p.score % 3) - 1;
            p.vy = p.vy + (p.x % 3) - 1;
            p.x = (p.x + p.vx) % 64;
            p.y = (p.y + p.vy) % 64;
            if (p.x < 0) {{ p.x = p.x + 64; }}
            if (p.y < 0) {{ p.y = p.y + 64; }}
            p.score = p.score + 1;
            p = p.next;
        }}
    }}

    void moveProjectiles() {{
        let pr = this.projectiles;
        while (pr != null) {{
            pr.x = pr.x + pr.dx;
            pr.y = pr.y + pr.dy;
            pr.ttl = pr.ttl - 1;
            pr = pr.next;
        }}
    }}

    void collide() {{
        let pr = this.projectiles;
        while (pr != null) {{
            if (pr.ttl > 0) {{
                let p = this.players;
                while (p != null) {{
                    let dx = p.x - pr.x;
                    let dy = p.y - pr.y;
                    if (dx * dx + dy * dy < 4) {{
                        p.hp = p.hp - 10;
                        pr.ttl = 0;
                    }}
                    p = p.next;
                }}
            }}
            pr = pr.next;
        }}
    }}

    void tick() {{
        this.movePlayers();
        this.moveProjectiles();
        this.collide();
        let p = this.players;
        while (p != null) {{
            if (p.score % 8 == 0) {{ this.fire(p); }}
            p = p.next;
        }}
        this.tickCount = this.tickCount + 1;
    }}

    int totalScore() {{
        let total = 0;
        let p = this.players;
        while (p != null) {{
            total = total + p.score;
            p = p.next;
        }}
        return total;
    }}
}}
{{
    (RHandle<r> h) {{
        let w = new World<r>;
        let i = 0;
        while (i < 8) {{
            w.spawnPlayer(i + {seq});
            i = i + 1;
        }}
        io(5000); // receive player inputs
        w.tick();
        io(3000); // broadcast the new state
        print(w.totalScore());
    }}
}}
"#
    )
}

/// `phone`, request-shaped: directory in immortal memory, one query
/// answered in a per-call region that dies with the call.
fn phone_request(seq: u32) -> String {
    let db_size = 16;
    let seq = seq % db_size;
    format!(
        r#"// phone (single query {seq}): one lookup against the immortal directory.
class Entry<Owner o> {{
    int name;
    int number;
    int district;
    Entry<o> next;
}}
class Bucket<Owner o> {{
    Entry<o> entries;
    int count;
    void insert(Entry<o> e) {{
        e.next = this.entries;
        this.entries = e;
        this.count = this.count + 1;
    }}
    int lookup(int name) {{
        let e = this.entries;
        while (e != null) {{
            if (e.name == name) {{ return e.number; }}
            e = e.next;
        }}
        return -1;
    }}
}}
class Directory<Owner o> {{
    Bucket<o> b0; Bucket<o> b1; Bucket<o> b2; Bucket<o> b3;
    void init() {{
        this.b0 = new Bucket<o>;
        this.b1 = new Bucket<o>;
        this.b2 = new Bucket<o>;
        this.b3 = new Bucket<o>;
    }}
    Bucket<o> bucketFor(int name) {{
        let k = name % 4;
        if (k == 0) {{ return this.b0; }}
        if (k == 1) {{ return this.b1; }}
        if (k == 2) {{ return this.b2; }}
        return this.b3;
    }}
    void add(int name, int number, int district) {{
        let e = new Entry<o>;
        e.name = name;
        e.number = number;
        e.district = district;
        this.bucketFor(name).insert(e);
    }}
    int lookup(int name) {{
        return this.bucketFor(name).lookup(name);
    }}
}}
class Session<Owner o> {{
    int query;
    int answer;
    int billingUnits;
}}
{{
    let db = new Directory<immortal>;
    db.init();
    let i = 0;
    while (i < {db_size}) {{
        db.add(i * 17 % {db_size}, 555000 + i, i % 9);
        i = i + 1;
    }}
    io(7000); // receive a query from the network
    (RHandle<call> hc) {{
        let s = new Session<call>;
        s.query = {seq};
        s.answer = db.lookup(s.query);
        if (s.answer > 0) {{
            s.billingUnits = 1 + s.query % 3;
        }}
        io(3000); // send the answer
        print(s.answer);
    }} // per-call region deleted
}}
"#
    )
}

/// A deterministic checker-throughput corpus: `copies` renamed replicas of
/// an ownership-heavy class family, plus one small main block.
///
/// Each replica contains a `TStack`-style stack with a `this`-owned spine
/// (exercising owner inference, `this`-encapsulation, and method-call
/// substitution) and a three-deep subtype chain (exercising the subtype
/// walk and override checks). Replica `i` gets globally distinct class
/// names, so class-level checking fans out across `copies` independent
/// units — the shape the parallel driver and the judgment caches are
/// benchmarked on at 1x / 8x / 64x.
pub fn scaled_classes(copies: usize) -> String {
    let copies = copies.max(1);
    let mut src = String::with_capacity(copies * 1200 + 256);
    src.push_str("// Scaled checker-throughput corpus (replicated class families).\n");
    for i in 0..copies {
        src.push_str(&format!(
            r#"class Item{i}<Owner o> {{ int v; }}
class Node{i}<Owner no, Owner vo> {{
    Item{i}<vo> value;
    Node{i}<no, vo> next;
    void init(Item{i}<vo> v, Node{i}<no, vo> n) {{
        this.value = v;
        this.next = n;
    }}
}}
class Stack{i}<Owner so, Owner vo> {{
    Node{i}<this, vo> head;
    void push(Item{i}<vo> value) {{
        let Node{i}<this, vo> n = new Node{i}<this, vo>;
        n.init(value, this.head);
        this.head = n;
    }}
    Item{i}<vo> peek() {{
        if (this.head == null) {{ return null; }}
        return this.head.value;
    }}
    int size() {{
        let c = 0;
        let Node{i}<this, vo> n = this.head;
        while (n != null) {{
            c = c + 1;
            n = n.next;
        }}
        return c;
    }}
}}
class Base{i}<Owner o> {{
    int tag;
    int bump(int x) {{
        this.tag = this.tag + x;
        return this.tag;
    }}
}}
class Mid{i}<Owner o> extends Base{i}<o> {{
    Base{i}<o> peer;
    void link(Base{i}<o> p) {{ this.peer = p; }}
    int poke() {{ return this.bump(2); }}
}}
class Leaf{i}<Owner o> extends Mid{i}<o> {{
    int probe() {{
        this.link(this);
        return this.poke() + this.bump(1);
    }}
}}
"#
        ));
    }
    src.push_str(
        r#"{
    (RHandle<outer> ho) {
        (RHandle<inner> hi) {
            let Stack0<inner, outer> s = new Stack0<inner, outer>;
            let it = new Item0<outer>;
            it.v = 1;
            s.push(it);
            let Leaf0<inner> l = new Leaf0<inner>;
            print(l.probe() + s.size());
        }
    }
}
"#,
    );
    src
}

/// An interpreter-throughput workload: `copies` renamed replicas of a
/// call- and field-heavy class family, each churned through a fixed-size
/// arithmetic loop from the main block.
///
/// Where [`scaled_classes`] stresses the *checker* (its main block is
/// trivial), this corpus stresses the *engines*: almost all of its
/// virtual time is spent in method dispatch, local-variable traffic,
/// field reads/writes, and integer arithmetic — the paths where the
/// bytecode VM's flat dispatch and inline caches pay off against the
/// tree-walker. Replica `i` gets globally distinct class names, so
/// call/field sites see distinct layouts and the workload also covers
/// cache-fill behaviour, not just steady-state hits.
pub fn scaled_vm_workload(copies: usize) -> String {
    let copies = copies.max(1);
    let mut src = String::with_capacity(copies * 1100 + 512);
    src.push_str("// Scaled interpreter-throughput corpus (replicated call/field churn).\n");
    for i in 0..copies {
        src.push_str(&format!(
            r#"class Gauge{i}<Owner o> {{
    int total;
    int samples;
    void add(int v) {{
        this.total = this.total + v;
        this.samples = this.samples + 1;
    }}
    int mean() {{
        if (this.samples == 0) {{ return 0; }}
        return this.total / this.samples;
    }}
}}
class Mixer{i}<Owner o> {{
    Gauge{i}<o> gauge;
    int mix(int a, int b) {{
        let x = a * 3 + b;
        let y = x / 2 + a % 7;
        return x + y * 2 - b;
    }}
    int churn(int n) {{
        let i = 0;
        let t = 1;
        while (i < n) {{
            t = this.mix(t, i) % 10007 + this.mix(i, t) % 97;
            this.gauge.add(t % 31);
            i = i + 1;
        }}
        return t;
    }}
}}
"#
        ));
    }
    src.push_str("{\n    (RHandle<r> h) {\n        let sum = 0;\n");
    for i in 0..copies {
        src.push_str(&format!(
            "        let m{i} = new Mixer{i}<r>;\n\
             \x20       let g{i} = new Gauge{i}<r>;\n\
             \x20       m{i}.gauge = g{i};\n\
             \x20       sum = sum + m{i}.churn(64) % 1009 + g{i}.mean();\n"
        ));
    }
    src.push_str("        print(sum % 100003);\n    }\n}\n");
    src
}

/// Deliberately ill-typed programs, one per typing-rule family, used to
/// differential-test the serial and parallel checking drivers: both must
/// produce the same diagnostics in the same (span-sorted) order.
///
/// Every program parses; all errors are type errors.
pub fn negatives() -> Vec<(&'static str, String)> {
    vec![
        (
            "dangling-region",
            r#"class P<Owner o, Owner q> { }
{ (RHandle<a> ha) { (RHandle<b> hb) {
    let P<a, b> p = new P<a, b>;
} } }
"#
            .to_owned(),
        ),
        (
            // The field `E<q, p>` needs `p ≽ q`, which fails — but the
            // reverse direction `q ≽ p` holds through the two declared
            // `where` edges (`q ≽ r ≽ p`), so `--explain` surfaces a
            // multi-step derivation chain for the failure.
            "outlives-chain",
            r#"class E<Owner x, Owner y> { }
class D<Owner o, Owner p, Owner q, Owner r> where q outlives r, r outlives p {
    E<q, p> f;
}
{ }
"#
            .to_owned(),
        ),
        (
            "unknown-owner",
            "class C<Owner o> { } { let C<ghost> c = new C<ghost>; }\n".to_owned(),
        ),
        (
            "arity-mismatch",
            "class C<Owner o, Owner p> { } { (RHandle<r> h) { let C<r> c = new C<r>; } }\n"
                .to_owned(),
        ),
        (
            "encapsulation-violation",
            r#"class S<Owner o> { N<this> rep; }
class N<Owner o> { int v; }
{ (RHandle<r> h) { let S<r> s = new S<r>; let x = s.rep; } }
"#
            .to_owned(),
        ),
        (
            "scoped-region-escape",
            r#"class C<Owner o> { }
{
    (RHandle<a> ha) { }
    let C<a> c = new C<a>;
}
"#
            .to_owned(),
        ),
        (
            // Several independently ill-typed classes: errors originate in
            // different class units, so the parallel driver's merge order
            // (span-sorted) is actually exercised.
            "many-bad-classes",
            r#"class A0<Owner o> { Missing0<o> f; }
class A1<Owner o> { Missing1<o> f; }
class A2<Owner o> { Missing2<o> f; }
class A3<Owner o> { Missing3<o> f; }
class A4<Owner o> { Missing4<o> f; }
class A5<Owner o> { Missing5<o> f; }
{ let A0<ghost> a = null; }
"#
            .to_owned(),
        ),
        (
            // Table-level errors: the structural checks walk hash maps,
            // so these come out in a different order on every run unless
            // the table sorts them.
            "unknown-superclasses",
            r#"class B0<Owner o> extends Unknown<o> { }
class B1<Owner o> extends Unknown<o> { }
class B2<Owner o> extends Unknown<o> { }
class B3<Owner o> extends Unknown<o> { }
class B4<Owner o> extends Unknown<o> { }
{ }
"#
            .to_owned(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_variants_parse_and_check() {
        for name in SERVER_PROGRAMS {
            for (seq, src) in request_variants(name, 3)
                .expect("server program")
                .iter()
                .enumerate()
            {
                let program = rtj_lang::parse_program(src)
                    .unwrap_or_else(|e| panic!("{name} request {seq}: parse error: {e}"));
                rtj_types::check_program(&program).unwrap_or_else(|errs| {
                    panic!(
                        "{name} request {seq}: type errors: {}",
                        errs.iter()
                            .map(|e| e.message.clone())
                            .collect::<Vec<_>>()
                            .join("; ")
                    )
                });
            }
        }
        assert!(request_program("unknown", 0).is_none());
    }

    #[test]
    fn scaled_corpus_is_well_typed() {
        let program = rtj_lang::parse_program(&scaled_classes(3)).expect("parses");
        rtj_types::check_program(&program).expect("well-typed");
    }

    #[test]
    fn scaled_vm_workload_is_well_typed() {
        let program = rtj_lang::parse_program(&scaled_vm_workload(3)).expect("parses");
        rtj_types::check_program(&program).expect("well-typed");
    }

    #[test]
    fn negatives_parse_but_do_not_check() {
        for (name, src) in negatives() {
            let program = rtj_lang::parse_program(&src)
                .unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
            assert!(
                rtj_types::check_program(&program).is_err(),
                "{name}: expected type errors"
            );
        }
    }

    #[test]
    fn all_programs_parse_and_check() {
        for bench in all(Scale::Smoke) {
            let program = rtj_lang::parse_program(&bench.source)
                .unwrap_or_else(|e| panic!("{}: parse error: {e}", bench.name));
            rtj_types::check_program(&program).unwrap_or_else(|errs| {
                panic!(
                    "{}: type errors: {}",
                    bench.name,
                    errs.iter()
                        .map(|e| e.message.clone())
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            });
        }
    }

    #[test]
    fn paper_scale_parses_too() {
        for bench in all(Scale::Paper) {
            rtj_lang::parse_program(&bench.source)
                .unwrap_or_else(|e| panic!("{}: parse error: {e}", bench.name));
        }
    }

    #[test]
    fn fourteen_programs() {
        assert_eq!(all(Scale::Smoke).len(), 14);
        // Paper order: the eight Figure 11 programs first appear as
        // Array, Tree, Water, Barnes, ImageRec, …, http, game, phone.
        let names: Vec<&str> = all(Scale::Smoke).iter().map(|b| b.name).collect();
        assert_eq!(names[0], "Array");
        assert_eq!(names[13], "phone");
    }
}
