//! Minimal SVG document builder (no dependencies).
//!
//! Supports exactly what the POM figures need: lines, polylines, circles,
//! rectangles and text, with a y-up data coordinate system mapped onto
//! the SVG's y-down pixel space.

use std::fmt::Write as _;

/// A fixed-size SVG canvas with a data-space viewport.
#[derive(Debug, Clone)]
pub struct SvgCanvas {
    width: f64,
    height: f64,
    x_range: (f64, f64),
    y_range: (f64, f64),
    body: String,
}

impl SvgCanvas {
    /// Create a canvas of `width × height` pixels whose drawing commands
    /// use data coordinates: `x ∈ x_range`, `y ∈ y_range` (y grows
    /// upward, as on paper).
    pub fn new(width: f64, height: f64, x_range: (f64, f64), y_range: (f64, f64)) -> Self {
        assert!(width > 0.0 && height > 0.0);
        assert!(x_range.1 > x_range.0 && y_range.1 > y_range.0);
        Self {
            width,
            height,
            x_range,
            y_range,
            body: String::new(),
        }
    }

    fn px(&self, x: f64) -> f64 {
        (x - self.x_range.0) / (self.x_range.1 - self.x_range.0) * self.width
    }

    fn py(&self, y: f64) -> f64 {
        self.height - (y - self.y_range.0) / (self.y_range.1 - self.y_range.0) * self.height
    }

    /// Straight line between two data points.
    pub fn line(&mut self, a: (f64, f64), b: (f64, f64), stroke: &str, width: f64) {
        let _ = writeln!(
            self.body,
            r#"<line x1="{:.2}" y1="{:.2}" x2="{:.2}" y2="{:.2}" stroke="{stroke}" stroke-width="{width}"/>"#,
            self.px(a.0),
            self.py(a.1),
            self.px(b.0),
            self.py(b.1),
        );
    }

    /// Polyline through data points.
    pub fn polyline(&mut self, pts: &[(f64, f64)], stroke: &str, width: f64) {
        if pts.len() < 2 {
            return;
        }
        let coords: Vec<String> = pts
            .iter()
            .map(|p| format!("{:.2},{:.2}", self.px(p.0), self.py(p.1)))
            .collect();
        let _ = writeln!(
            self.body,
            r#"<polyline points="{}" fill="none" stroke="{stroke}" stroke-width="{width}"/>"#,
            coords.join(" "),
        );
    }

    /// Filled circle at a data point (radius in pixels).
    pub fn circle(&mut self, center: (f64, f64), r_px: f64, fill: &str) {
        let _ = writeln!(
            self.body,
            r#"<circle cx="{:.2}" cy="{:.2}" r="{r_px:.2}" fill="{fill}"/>"#,
            self.px(center.0),
            self.py(center.1),
        );
    }

    /// Axis-aligned rectangle between two data corners.
    pub(crate) fn rect(&mut self, lo: (f64, f64), hi: (f64, f64), fill: &str) {
        let (x0, x1) = (self.px(lo.0), self.px(hi.0));
        let (y0, y1) = (self.py(hi.1), self.py(lo.1)); // y flips
        let _ = writeln!(
            self.body,
            r#"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{fill}"/>"#,
            x0.min(x1),
            y0.min(y1),
            (x1 - x0).abs(),
            (y1 - y0).abs(),
        );
    }

    /// Text label anchored at a data point.
    pub fn text(&mut self, at: (f64, f64), size_px: f64, content: &str) {
        let escaped = content
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;");
        let _ = writeln!(
            self.body,
            r#"<text x="{:.2}" y="{:.2}" font-size="{size_px}" font-family="monospace">{escaped}</text>"#,
            self.px(at.0),
            self.py(at.1),
        );
    }

    /// Finish the document.
    pub fn render(&self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\n<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n{body}</svg>\n",
            w = self.width,
            h = self.height,
            body = self.body,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canvas_maps_corners() {
        let mut c = SvgCanvas::new(100.0, 50.0, (0.0, 10.0), (0.0, 1.0));
        c.circle((0.0, 0.0), 2.0, "red"); // bottom-left → (0, 50)
        c.circle((10.0, 1.0), 2.0, "blue"); // top-right → (100, 0)
        let s = c.render();
        assert!(s.contains(r#"cx="0.00" cy="50.00""#), "{s}");
        assert!(s.contains(r#"cx="100.00" cy="0.00""#), "{s}");
    }

    #[test]
    fn render_is_wellformed() {
        let mut c = SvgCanvas::new(10.0, 10.0, (0.0, 1.0), (0.0, 1.0));
        c.line((0.0, 0.0), (1.0, 1.0), "black", 1.0);
        c.polyline(&[(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], "green", 0.5);
        c.rect((0.1, 0.1), (0.9, 0.9), "#eee");
        c.text((0.5, 0.5), 8.0, "a<b & c");
        let s = c.render();
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        assert!(s.contains("&lt;b &amp; c"));
        assert_eq!(s.matches("<line").count(), 1);
        assert_eq!(s.matches("<polyline").count(), 1);
    }

    #[test]
    fn short_polyline_is_skipped() {
        let mut c = SvgCanvas::new(10.0, 10.0, (0.0, 1.0), (0.0, 1.0));
        c.polyline(&[(0.5, 0.5)], "red", 1.0);
        assert!(!c.render().contains("polyline"));
    }

    #[test]
    #[should_panic]
    fn rejects_empty_ranges() {
        SvgCanvas::new(10.0, 10.0, (1.0, 1.0), (0.0, 1.0));
    }
}
