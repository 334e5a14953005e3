//! Surface and body materials with mmWave loss characteristics.
//!
//! At 24–60 GHz, walls are poor mirrors and human tissue is nearly opaque.
//! The values here are representative of published indoor mmWave
//! measurements and are calibrated so the full pipeline reproduces the
//! paper's §3 numbers: hand blockage costs ≳14 dB, head/body more, and the
//! best wall-reflected (NLOS) path sits ~16–17 dB under the line of sight.

/// A material a radio wave can reflect off or pass through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Painted drywall / plasterboard — the paper's office walls.
    Drywall,
    /// Poured concrete (exterior wall, floor slab).
    Concrete,
    /// Window glass.
    Glass,
    /// Sheet metal (whiteboard backing, cabinets). Excellent reflector,
    /// impenetrable — this is what \[34\]'s data-center ceiling mirror used.
    Metal,
    /// Wooden furniture.
    Wood,
    /// Human tissue (hand, head, torso). Essentially opaque at mmWave.
    HumanTissue,
}

impl Material {
    /// Power lost on a specular reflection off this surface, in dB.
    ///
    /// mmWave reflections scatter much of the energy; only metal behaves
    /// like a mirror. These are the per-bounce penalties the paper's §3
    /// blames for NLOS paths failing to carry VR traffic.
    pub fn reflection_loss_db(self) -> f64 {
        match self {
            Material::Drywall => 6.5,
            Material::Concrete => 7.0,
            Material::Glass => 8.5,
            Material::Metal => 0.5,
            Material::Wood => 11.0,
            Material::HumanTissue => 25.0,
        }
    }

    /// Power lost passing *through* this material, in dB.
    ///
    /// Human-tissue penetration is effectively a hard block (§3: "even a
    /// small obstacle like the player's hand can block the signal"). The
    /// per-body-part shadowing values used by the blockage model live in
    /// [`crate::obstacle::BodyPart`]; this is the generic material number.
    pub fn penetration_loss_db(self) -> f64 {
        match self {
            Material::Drywall => 6.5,
            Material::Concrete => 40.0,
            Material::Glass => 3.5,
            Material::Metal => 60.0,
            Material::Wood => 9.0,
            Material::HumanTissue => 35.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Material; 6] = [
        Material::Drywall,
        Material::Concrete,
        Material::Glass,
        Material::Metal,
        Material::Wood,
        Material::HumanTissue,
    ];

    #[test]
    fn losses_are_nonnegative() {
        for m in ALL {
            assert!(m.reflection_loss_db() >= 0.0, "{m:?}");
            assert!(m.penetration_loss_db() >= 0.0, "{m:?}");
        }
    }

    #[test]
    fn metal_is_the_best_reflector() {
        for m in ALL {
            if m != Material::Metal {
                assert!(
                    m.reflection_loss_db() > Material::Metal.reflection_loss_db(),
                    "{m:?}"
                );
            }
        }
    }

    #[test]
    fn tissue_blocks_hard() {
        // The §3 observation: a hand in the beam costs >14 dB. The generic
        // tissue penetration must be well above that.
        assert!(Material::HumanTissue.penetration_loss_db() > 14.0);
        assert!(Material::HumanTissue.reflection_loss_db() >= 20.0);
    }

    #[test]
    fn interior_walls_reflect_usably() {
        // Opt-NLOS in the paper still decodes *something*: interior
        // surfaces must not be treated as absorbers.
        for m in [Material::Drywall, Material::Concrete, Material::Glass] {
            assert!(m.reflection_loss_db() < 20.0, "{m:?}");
        }
    }
}
