//! Near-square 2-D mesh topology with dimension-order routing.

/// A 2-D mesh of `width × height` nodes, numbered row-major.
///
/// For `n` nodes the constructor picks the most nearly square `width ×
/// height = n` factorization (16 → 4×4, 8 → 4×2, 2 → 2×1), matching the
/// paper's 16-node mesh.
///
/// ```
/// use ncp2_net::Mesh;
/// let m = Mesh::new(16);
/// assert_eq!((m.width(), m.height()), (4, 4));
/// assert_eq!(m.hops(0, 15), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
}

/// A directed link between two adjacent mesh nodes, identified by index into
/// the network's reservation table.
pub type LinkId = usize;

impl Mesh {
    /// Builds the most nearly square mesh holding exactly `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "mesh needs at least one node");
        let mut best = (n, 1);
        let mut w = 1;
        while w * w <= n {
            if n.is_multiple_of(w) {
                best = (n / w, w);
            }
            w += 1;
        }
        Mesh {
            width: best.0,
            height: best.1,
        }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes(), "node {node} out of range");
        (node % self.width, node / self.width)
    }

    /// Node id at `(x, y)`.
    pub fn node_at(&self, x: usize, y: usize) -> usize {
        assert!(x < self.width && y < self.height, "coords out of range");
        y * self.width + x
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// Number of directed links in the mesh (each undirected edge counts
    /// twice; the paper's paths are bidirectional).
    pub fn link_count(&self) -> usize {
        let horiz = (self.width - 1) * self.height;
        let vert = self.width * (self.height - 1);
        2 * (horiz + vert)
    }

    /// Directed link id from `from` to the adjacent node `to`.
    ///
    /// Layout: all east links, then west, then south (increasing y), then
    /// north.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not adjacent.
    pub fn link_id(&self, from: usize, to: usize) -> LinkId {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        let horiz = (self.width - 1) * self.height;
        let vert = self.width * (self.height - 1);
        if fy == ty && tx == fx + 1 {
            fy * (self.width - 1) + fx // east
        } else if fy == ty && fx == tx + 1 {
            horiz + fy * (self.width - 1) + tx // west
        } else if fx == tx && ty == fy + 1 {
            2 * horiz + fy * self.width + fx // south
        } else if fx == tx && fy == ty + 1 {
            2 * horiz + vert + ty * self.width + fx // north
        } else {
            // invariant: routes are built hop by hop from neighbors()
            panic!("nodes {from} and {to} are not adjacent");
        }
    }

    /// The dimension-order route from `src` to `dst` as its two straight
    /// legs, `[x, y]`: the same links as [`Mesh::route`], named without a
    /// hop-by-hop walk. This is the router's hot-path form.
    ///
    /// The [`Mesh::link_id`] layout makes each leg one arithmetic run. The X
    /// leg stays in row `sy` and crosses consecutive east (or west) links, so
    /// its ids are contiguous. The Y leg stays in column `dx` and steps one
    /// row per hop through the south (or north) block, so its ids are
    /// `width` apart. A leg with no hops is `len == 0` at `start == 0`, so
    /// every leg's [`Leg::span`] lies inside the link table.
    ///
    /// ```
    /// use ncp2_net::Mesh;
    /// let m = Mesh::new(16);
    /// let [x, y] = m.legs(0, 15);
    /// assert_eq!((x.len, x.stride, y.len, y.stride), (3, 1, 3, 4));
    /// let links: Vec<usize> = x.links().chain(y.links()).collect();
    /// assert_eq!(links, m.route(0, 15));
    /// ```
    pub fn legs(&self, src: usize, dst: usize) -> [Leg; 2] {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let horiz = (self.width - 1) * self.height;
        let vert = self.width * (self.height - 1);
        let row = sy * (self.width - 1);
        // East link `fx → fx + 1` is `row + fx`; west link `tx + 1 → tx`
        // is `horiz + row + tx`. Either way the leg's lowest id belongs to
        // its smaller x.
        let x = Leg::new(
            if dx >= sx { row + sx } else { horiz + row + dx },
            sx.abs_diff(dx),
            1,
        );
        // South link `fy → fy + 1` is `2·horiz + fy·width + dx`; north link
        // `ty + 1 → ty` is `2·horiz + vert + ty·width + dx`.
        let y = Leg::new(
            if dy >= sy {
                2 * horiz + sy * self.width + dx
            } else {
                2 * horiz + vert + dy * self.width + dx
            },
            sy.abs_diff(dy),
            self.width,
        );
        [x, y]
    }

    /// The dimension-order (X then Y) route from `src` to `dst`, one
    /// directed link id per hop, computed on the fly with no allocation.
    /// Yields nothing when `src == dst`. It walks the route hop by hop
    /// through [`Mesh::link_id`], independently of [`Mesh::legs`], which
    /// makes it the reference the router's booking is tested against.
    pub fn route_iter(&self, src: usize, dst: usize) -> RouteIter<'_> {
        let (x, y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        RouteIter {
            mesh: self,
            x,
            y,
            dx,
            dy,
        }
    }

    /// The dimension-order route as a collected list of link ids. Empty when
    /// `src == dst`. Convenience wrapper over [`Mesh::route_iter`] for tests
    /// and diagnostics; the router itself never materializes paths.
    pub fn route(&self, src: usize, dst: usize) -> Vec<LinkId> {
        let it = self.route_iter(src, dst);
        let mut hops = Vec::with_capacity(it.len());
        hops.extend(it);
        hops
    }
}

/// One straight leg of a dimension-order route (see [`Mesh::legs`]): the
/// `len` directed links `start, start + stride, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leg {
    /// Lowest link id on the leg; 0 when the leg is empty.
    pub start: LinkId,
    /// Hops on the leg.
    pub len: usize,
    /// Distance between consecutive link ids (never zero).
    pub stride: usize,
}

impl Leg {
    /// A leg of `len` links from `start`; an empty one starts at 0, since
    /// the formula's start for a leg with no hops can lie past the table.
    fn new(start: LinkId, len: usize, stride: usize) -> Leg {
        let start = if len == 0 { 0 } else { start };
        Leg { start, len, stride }
    }

    /// The smallest id range holding every link of the leg; the links are
    /// every `stride`-th id of it, from the first.
    pub fn span(&self) -> std::ops::Range<LinkId> {
        match self.len {
            0 => self.start..self.start,
            n => self.start..self.start + (n - 1) * self.stride + 1,
        }
    }

    /// The leg's link ids in ascending order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> {
        self.span().step_by(self.stride)
    }
}

/// Allocation-free walk of a dimension-order route (see
/// [`Mesh::route_iter`]).
#[derive(Debug, Clone)]
pub struct RouteIter<'a> {
    mesh: &'a Mesh,
    x: usize,
    y: usize,
    dx: usize,
    dy: usize,
}

impl Iterator for RouteIter<'_> {
    type Item = LinkId;

    fn next(&mut self) -> Option<LinkId> {
        if self.x != self.dx {
            let nx = if self.dx > self.x {
                self.x + 1
            } else {
                self.x - 1
            };
            let id = self.mesh.link_id(
                self.mesh.node_at(self.x, self.y),
                self.mesh.node_at(nx, self.y),
            );
            self.x = nx;
            Some(id)
        } else if self.y != self.dy {
            let ny = if self.dy > self.y {
                self.y + 1
            } else {
                self.y - 1
            };
            let id = self.mesh.link_id(
                self.mesh.node_at(self.x, self.y),
                self.mesh.node_at(self.x, ny),
            );
            self.y = ny;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.x.abs_diff(self.dx) + self.y.abs_diff(self.dy);
        (left, Some(left))
    }
}

impl ExactSizeIterator for RouteIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_factorizations() {
        assert_eq!((Mesh::new(16).width(), Mesh::new(16).height()), (4, 4));
        assert_eq!((Mesh::new(8).width(), Mesh::new(8).height()), (4, 2));
        assert_eq!((Mesh::new(12).width(), Mesh::new(12).height()), (4, 3));
        assert_eq!((Mesh::new(2).width(), Mesh::new(2).height()), (2, 1));
        assert_eq!((Mesh::new(1).width(), Mesh::new(1).height()), (1, 1));
        assert_eq!((Mesh::new(7).width(), Mesh::new(7).height()), (7, 1));
    }

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(16);
        for n in 0..16 {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), n);
        }
    }

    #[test]
    fn link_ids_are_unique_and_dense() {
        let m = Mesh::new(16);
        let mut seen = vec![false; m.link_count()];
        for y in 0..4 {
            for x in 0..4 {
                let n = m.node_at(x, y);
                let mut neighbors = Vec::new();
                if x + 1 < 4 {
                    neighbors.push(m.node_at(x + 1, y));
                }
                if x > 0 {
                    neighbors.push(m.node_at(x - 1, y));
                }
                if y + 1 < 4 {
                    neighbors.push(m.node_at(x, y + 1));
                }
                if y > 0 {
                    neighbors.push(m.node_at(x, y - 1));
                }
                for nb in neighbors {
                    let id = m.link_id(n, nb);
                    assert!(!seen[id], "duplicate link id {id}");
                    seen[id] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "link id space not dense");
    }

    #[test]
    fn routes_have_manhattan_length() {
        let m = Mesh::new(16);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(m.route(s, d).len() as u64, m.hops(s, d));
            }
        }
    }

    #[test]
    fn route_is_x_then_y() {
        let m = Mesh::new(16);
        // 0 -> 15: east, east, east, then south, south, south.
        let r = m.route(0, 15);
        assert_eq!(r.len(), 6);
        let e01 = m.link_id(0, 1);
        assert_eq!(r[0], e01);
        let s311 = m.link_id(3, 7);
        assert_eq!(r[3], s311);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_link_panics() {
        Mesh::new(16).link_id(0, 2);
    }
}
